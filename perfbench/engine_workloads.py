"""The engine workloads: ``table1_rank`` and ``cc_xval``.

Both run their job list through :func:`repro.core.runner.run_jobs`
(``workers=1``) with a fresh, empty on-disk result cache per pass: the
cold ``repro sweep`` / ``repro xval`` path.  Each pass is followed by
warm reruns of the same jobs on the now-full cache (the warm
``repro sweep`` path), which time cache replays.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import shutil
import time
from pathlib import Path

from common import HostSpeed, Tally, fresh_interpreter_setup_s, median, p95, peak_rss_mb
from layers import SELF_LAYERS, Attribution

import repro.sim.fastpath as fastpath
from repro.backends import Workload, canonical_json, clear_memo, create
from repro.core.cache import SweepCache
from repro.core.runner import Job, derive_seed, run_jobs
from repro.errors import ReproError
from repro.workloads.specs import TABLE1_SPEC
from repro.xval import DivergenceReport

#: Table 1 list sizes are this many nodes per simulated processor.
NODES_PER_PROC = 2000
RANK_PROCS = (1, 2, 4)

#: Fig. 2 CC graphs for the xval pairs, and the pairs themselves.  One
#: graph of this size measured steadier than three half-size graphs: the
#: slowest pair, which sets ``latency_p95_ms``, then depends on fewer
#: seed-dependent SV iteration counts.
CC_PARAMS = {"graph": "random", "n": 1024, "m": 4096}
CC_GRAPHS = 1
CC_P = 4
XVAL_PAIRS = (
    ("smp/branchy", {"machine": "smp", "variant": "branchy", "max_iter": 64}),
    ("smp/branch-avoiding", {"machine": "smp", "variant": "branch-avoiding", "max_iter": 64}),
    ("mta", {"machine": "mta", "max_iter": 64}),
)


def table1_jobs(seed: int) -> list[Job]:
    opts = {
        "streams_per_proc": TABLE1_SPEC.streams_per_proc,
        "nodes_per_walk": TABLE1_SPEC.nodes_per_walk,
    }
    jobs = []
    for p in RANK_PROCS:
        for cls in ("random", "ordered"):
            params = {"n": NODES_PER_PROC * p, "list": cls}
            wl = Workload("rank", p, derive_seed(seed, "table1_rank", params), params, opts)
            jobs.append(Job(wl, "mta-engine", tags={"list": cls, "p": p}))
    return jobs


def cc_xval_jobs(seed: int) -> list[Job]:
    jobs = []
    for g in range(CC_GRAPHS):
        wl_seed = derive_seed(seed, "cc_xval", g, CC_PARAMS)
        jobs += [
            Job(Workload("cc", CC_P, wl_seed, CC_PARAMS, dict(opts)), "cost-xval",
                tags={"pair": label, "graph": g})
            for label, opts in XVAL_PAIRS
        ]
    return jobs


def _with_tier(jobs: list[Job], tier: str) -> list[Job]:
    return [
        dataclasses.replace(
            job, workload=dataclasses.replace(
                job.workload, options={**job.workload.options, "tier": tier}
            )
        )
        for job in jobs
    ]


class TimedCache(SweepCache):
    """A :class:`SweepCache` that times its own ``get``/``put`` calls."""

    def __init__(self, root):
        super().__init__(root)
        self.get_hit_s: list[float] = []
        self.put_s: list[float] = []

    def get(self, key):
        t0 = time.perf_counter()
        record = super().get(key)
        if record is not None:
            self.get_hit_s.append(time.perf_counter() - t0)
        return record

    def put(self, key, record):
        t0 = time.perf_counter()
        super().put(key, record)
        self.put_s.append(time.perf_counter() - t0)


#: Warm reruns per pass: a replay takes well under a millisecond, so
#: several are needed for a steady median.
WARM_RERUNS = 5


@dataclasses.dataclass
class Pass:
    """One cold pass plus its warm reruns."""

    wall_s: float
    cold_lat_s: list
    warm_lat_s: list
    cold: list
    warm_runs: list
    cache: TimedCache
    bytes_written: int


def run_pass(jobs: list[Job], cache_dir: Path) -> Pass:
    clear_memo()  # a cold pass generates its inputs, as a fresh process would
    cache = TimedCache(cache_dir)
    marks: list[float] = []

    def progress(done, total, job, cached):
        marks.append(time.perf_counter())

    def latencies(start):
        out, prev = [], start
        for m in marks:
            out.append(m - prev)
            prev = m
        marks.clear()
        return out

    t0 = time.perf_counter()
    cold = run_jobs(jobs, workers=1, cache=cache, progress=progress)
    wall = time.perf_counter() - t0
    cold_lat = latencies(t0)
    warm_runs, warm_lat = [], []
    for _ in range(WARM_RERUNS):
        t1 = time.perf_counter()
        warm_runs.append(run_jobs(jobs, workers=1, cache=cache, progress=progress))
        warm_lat += latencies(t1)
    written = sum(f.stat().st_size for f in cache_dir.rglob("*.json"))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return Pass(wall, cold_lat, warm_lat, cold, warm_runs, cache, written)


class EngineWorkload:
    """Shared driver for the two engine workloads."""

    def __init__(self, name: str, seed: int, work: Path, tally: Tally):
        self.name = name
        self.jobs = table1_jobs(seed) if name == "table1_rank" else cc_xval_jobs(seed)
        self.work = work
        self.tally = tally
        self._n = 0
        self.reference: list[str] | None = None

    def _cache_dir(self) -> Path:
        self._n += 1
        return self.work / f"cache-{self._n}"

    # -- checks -----------------------------------------------------------------

    def check_results(self, results, *, summary_only=False) -> None:
        """Count each result as one operation; fail it on any broken
        invariant.  The first checked results become the reference for
        byte-identity of later repetitions."""
        texts = [
            canonical_json(r.record["summary"]) if summary_only else r.jsonl()
            for r in results
        ]
        if self.reference is None:
            self.reference = [r.jsonl() for r in results]
        bad = set()
        for i, r in enumerate(results):
            try:
                r.run_summary().validate()
            except ReproError as exc:
                self.tally.note(f"{r.job.tags}: {exc}")
                bad.add(i)
            if not r.summary["utilization"] <= 1.0:
                self.tally.note(f"{r.job.tags}: utilization {r.summary['utilization']} > 1")
                bad.add(i)
            ref = self.reference[i]
            if summary_only:
                ref = canonical_json(json.loads(ref)["summary"])
            if texts[i] != ref:
                self.tally.note(f"{r.job.tags}: record differs from the first repetition")
                bad.add(i)
        if self.name == "cc_xval":
            bad |= self._check_xval(results)
        self.tally.count(len(results), len(bad))

    def check_all(self, ps: Pass) -> None:
        self.check_results(ps.cold)
        for warm in ps.warm_runs:
            self.check_results(warm)

    def _check_xval(self, results) -> set:
        bad = set()
        reports = {}
        for i, r in enumerate(results):
            report = DivergenceReport.from_dict(r.detail["xval"])
            reports[r.job.tags["graph"], r.job.tags["pair"]] = (i, report)
            if len(report.pairs) < 1:
                self.tally.note(f"xval {r.job.tags}: no phase paired")
                bad.add(i)
        for g in range(CC_GRAPHS):
            (ib, branchy), (ia, avoiding) = (
                reports[g, "smp/branchy"], reports[g, "smp/branch-avoiding"]
            )
            if not _sign_agreement(branchy, avoiding):
                self.tally.note(f"xval graph {g}: the SMP stacks disagree on the"
                                " branch-cycle gap sign")
                bad |= {ib, ia}
        return bad

    def check_answers(self) -> None:
        """Re-run each distinct kernel once through its public simulate
        function, check the computed ranks/labels against ground truth,
        and check its cycles equal the measured run's."""
        from repro.validate import check_component_labels, check_ranks

        records = [json.loads(t) for t in self.reference]
        if self.name == "table1_rank":
            from repro.lists.programs import simulate_mta_list_ranking

            for job, rec in zip(self.jobs, records):
                if job.tags["list"] != "random" or job.tags["p"] != 2:
                    continue
                wl = job.workload
                data = create(job.backend).prepare(wl).data
                sim = simulate_mta_list_ranking(
                    data, p=wl.p, streams_per_proc=wl.options["streams_per_proc"],
                    nodes_per_walk=wl.options["nodes_per_walk"],
                    engine_kwargs={"tier": "auto"},
                )
                self._answer(lambda: check_ranks(data, sim.ranks), sim, rec, job)
            return
        from repro.core.smp_machine import SUN_E4500
        from repro.graphs.programs import simulate_mta_cc, simulate_smp_cc
        from repro.xval.runner import DEFAULT_PENALTY

        config = dataclasses.replace(SUN_E4500, mispredict_penalty_cycles=DEFAULT_PENALTY)
        for job, rec in zip(self.jobs, records):
            if job.tags["graph"] != 0:
                continue
            wl = job.workload
            graph = create("smp-engine").prepare(
                Workload(wl.kind, wl.p, wl.seed, dict(wl.params))
            ).data
            if wl.options["machine"] == "smp":
                sim = simulate_smp_cc(graph, p=wl.p, config=config,
                                      variant=wl.options["variant"])
            else:
                sim = simulate_mta_cc(graph, p=wl.p, engine_kwargs={"tier": "auto"})
            self._answer(lambda: check_component_labels(graph, sim.labels), sim, rec, job)

    def _answer(self, check, sim, record, job) -> None:
        ok = True
        try:
            check()
        except ReproError as exc:
            self.tally.note(f"{job.tags}: wrong answer: {exc}")
            ok = False
        if float(sim.summary.cycles) != record["summary"]["cycles"]:
            self.tally.note(f"{job.tags}: direct run cycles differ from the measured run")
            ok = False
        self.tally.count(1, 0 if ok else 1)

    # -- counts -----------------------------------------------------------------

    def sim_counts(self) -> dict:
        summaries = [json.loads(t)["summary"] for t in self.reference]
        cycles = sum(s["cycles"] for s in summaries)
        issued = sum(s["issued"] for s in summaries)
        slots = sum(s["p"] * s["cycles"] for s in summaries)
        out = {"sim.cycles": cycles, "sim.issued": issued, "sim.utilization": issued / slots}
        out.update(xval_counts(summaries))
        return out

    # -- runs -------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Untraced run: the end-to-end metrics."""
        speed = HostSpeed()
        speed.sample(3)
        setup = fresh_interpreter_setup_s()
        self.check_results(run_pass(self.jobs, self._cache_dir()).cold)  # warm-up
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            ps = run_pass(self.jobs, self._cache_dir())
            self.check_all(ps)
            passes.append(ps)
            speed.sample()
        self.check_answers()
        f = speed.factor()
        issued = self.sim_counts()["sim.issued"]
        cold_lat = [x for ps in passes for x in ps.cold_lat_s]
        # each job's median cold latency over the passes; a pass's time,
        # robust to slow passes, is their sum
        job_s = [median(ps.cold_lat_s[i] for ps in passes) for i in range(len(self.jobs))]
        pass_s = sum(job_s)
        return {
            "setup_s": f * setup,
            "jobs_per_s": len(self.jobs) / (f * pass_s),
            "sim_ops_per_s": issued / (f * pass_s),
            "warm_p50_ms": f * 1e3 * median(x for ps in passes for x in ps.warm_lat_s),
            "cold_p50_ms": f * 1e3 * median(cold_lat),
            "latency_p95_ms": f * 1e3 * p95(job_s),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float) -> dict:
        """Traced run: alternate untraced and profiled passes, then time
        one ``tier=interpreted`` pass; returns the per-layer metrics."""
        self.check_results(run_pass(self.jobs, self._cache_dir()).cold)  # warm-up
        prof = cProfile.Profile()
        windows = {"attempts": 0, "windows": 0}
        original = fastpath.try_ld_window

        def counted_try_ld_window(kernel, cycle, budget):
            windows["attempts"] += 1
            w = original(kernel, cycle, budget)
            if w is not None:
                windows["windows"] += 1
            return w

        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            ps = run_pass(self.jobs, self._cache_dir())
            self.check_all(ps)
            plain.append(ps)
            fastpath.try_ld_window = counted_try_ld_window
            prof.enable()
            try:
                ps = run_pass(self.jobs, self._cache_dir())
            finally:
                prof.disable()
                fastpath.try_ld_window = original
            self.check_all(ps)
            traced.append(ps)
        interp = run_pass(_with_tier(self.jobs, "interpreted"), self._cache_dir())
        self.check_results(interp.cold, summary_only=True)

        code = counted_try_ld_window.__code__
        attr = Attribution(
            pstats.Stats(prof), Path(fastpath.__file__).parent.parent,
            extra={(code.co_filename, code.co_name): "fastpath"},
        )
        n = len(traced)
        counts = self.sim_counts()
        out = {f"{layer}.self_s": attr.self_s[layer] / n for layer in SELF_LAYERS}
        plain_wall = median(ps.wall_s for ps in plain)
        get_s = [x for ps in plain for x in ps.cache.get_hit_s]
        put_s = [x for ps in plain for x in ps.cache.put_s]
        last = plain[-1].cache
        out.update({
            "isa.calls": attr.calls("sim.isa") / n,
            "memory.addr_calls": attr.calls("arch.memory", "addr") / n,
            "kernel.resumes": attr.generator_resumes() / n,
            "kernel.ns_per_op": 1e9 * out["kernel.self_s"] / counts["sim.issued"],
            "inputs.calls": attr.calls("backends.inputs", "_build") / n,
            "fastpath.attempts": windows["attempts"] / n,
            "fastpath.windows": windows["windows"] / n,
            "fastpath.auto_over_interpreted": plain_wall / interp.wall_s,
            "sweep_cache.get_ms": 1e3 * median(get_s),
            "sweep_cache.put_ms": 1e3 * median(put_s),
            "sweep_cache.hits": last.hits,
            "sweep_cache.misses": last.misses,
            "sweep_cache.stores": last.stores,
            "sweep_cache.bytes_written": median(ps.bytes_written for ps in plain),
            "trace.overhead_ratio": median(ps.wall_s for ps in traced) / plain_wall,
        })
        out.update(counts)
        return {"metrics": out, "unmapped": attr.unmapped, "self_s": attr.self_s}


def _sign_agreement(branchy: DivergenceReport, avoiding: DivergenceReport) -> bool:
    pred = branchy.predicted_branch_cycles - avoiding.predicted_branch_cycles
    sim = branchy.simulated_branch_cycles - avoiding.simulated_branch_cycles
    return (pred > 0.0) == (sim > 0.0)


def xval_counts(summaries: list[dict]) -> dict:
    """The exact xval counts of one pass (zeros without xval records):
    the largest SMP and MTA whole-run errors over the graphs, and on how
    many graphs the two SMP stacks agree on the branch-gap sign."""
    reports = [DivergenceReport.from_dict(s["detail"]["xval"])
               for s in summaries if "xval" in s.get("detail", {})]
    if not reports:
        return {"xval.smp_max_total_rel_error": 0.0, "xval.mta_total_rel_error": 0.0,
                "xval.branch_sign_agreement": 0}
    per_graph = [
        {(r.machine, r.variant): r for r in reports[i:i + len(XVAL_PAIRS)]}
        for i in range(0, len(reports), len(XVAL_PAIRS))
    ]
    return {
        "xval.smp_max_total_rel_error": max(
            r.total_rel_error for r in reports if r.machine == "smp"),
        "xval.mta_total_rel_error": max(
            r.total_rel_error for r in reports if r.machine == "mta"),
        "xval.branch_sign_agreement": sum(
            _sign_agreement(g["smp", "branchy"], g["smp", "branch-avoiding"])
            for g in per_graph),
    }

