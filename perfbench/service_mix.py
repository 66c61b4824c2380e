"""The ``service_mix`` workload: ``repro serve`` under a closed-loop mix.

The server runs as its own process on loopback with a fresh cache
directory.  One client in this process runs a closed loop: it submits,
polls until the reply is terminal, then submits its next operation.  A
seeded plan interleaves three kinds of operation:

``cold``  a distinct analytic-model Fig. 1 / Fig. 2 grid point (input
          generation, both models, cache writes);
``warm``  a resubmission of a grid point completed earlier in the pass
          (cache reads only);
``burst`` ``BURST`` identical submissions of a new grid point sent
          back to back, then awaited (coalescing).

One client, not one per CPU: the server executes under one interpreter
lock, and a cold execution holds it ~40 times as long as a warm reply
takes, so with a second client the latency of every reply depended on
what the other client happened to run at the same moment (warm and cold
medians spread by 30-50% between seeds on a 2-CPU host).
"""

from __future__ import annotations

import json
import pstats
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, SETUP_REPEATS, HostSpeed, Tally, median, p95, src_env
from layers import SELF_LAYERS, Attribution

from repro.backends import Workload, canonical_json
from repro.core.runner import Job, derive_seed, run_jobs, write_jsonl
from repro.errors import ReproError
from repro.obs.summary import RunSummary
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import DONE, TERMINAL_STATES

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "traced_serve.py"

#: Steps of each kind per pass, in a seeded order.  Fixed counts and a
#: fixed multiset of grid shapes keep the work of a pass, and so the
#: throughput, independent of the seed; the seed picks the order and
#: the inputs.
MIX = {"cold": 6, "warm": 11, "burst": 3}
#: ``(kind, p, n, list class or m/n)``: Fig. 1 lists and Fig. 2 graphs,
#: one per cold or burst step.
GRID = (
    ("rank", 1, 4096, "random"),
    ("rank", 2, 8192, "ordered"),
    ("rank", 4, 16384, "random"),
    ("rank", 8, 8192, "random"),
    ("rank", 4, 4096, "ordered"),
    ("cc", 1, 2048, 4),
    ("cc", 2, 2048, 8),
    ("cc", 4, 2048, 12),
    ("cc", 8, 2048, 8),
)
BURST = 3
#: Pause between the first ``FINE_POLLS`` polls, then doubling up to
#: ``POLL_MAX_S``.
#: ``ServiceClient.wait``'s fixed 50 ms would hide a warm reply of a few
#: milliseconds; a fixed 1 ms would keep the server's event loop busy
#: answering polls while a cold execution needs the interpreter.
POLL_S = 0.001
FINE_POLLS = 8
POLL_MAX_S = 0.016
MODEL_BACKENDS = ("mta-model", "smp-model")
#: Distinct submissions re-run directly per run (each costs ~0.1 s).
VERIFY_SAMPLE = 40


class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn -> health answered."""

    def __init__(self, work: Path, name: str, launcher: list | None = None):
        self.cache_dir = work / f"{name}-cache"
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--cache-dir", str(self.cache_dir), "--job-workers", "1"]
        if launcher is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(LAUNCHER), *launcher, "--", *serve_args]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=src_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.log: list[str] = []
        try:
            port = self._read_port(deadline=time.monotonic() + 60)
            self._drain = threading.Thread(target=self._drain_log, daemon=True)
            self._drain.start()
            self.client = ServiceClient(port=port, timeout=60)
            self.client.wait_until_up(timeout=60, poll_s=0.002)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        marker = "listening on http://"
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stderr], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stderr.readline()
            if not line:
                break
            self.log.append(line)
            if marker in line:
                return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        raise RuntimeError("repro serve did not start: " + "".join(self.log))

    def _drain_log(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=10)


class Outcome:
    """What one client saw for one submission."""

    __slots__ = ("kind", "key", "latency_s", "view", "error")

    def __init__(self, kind, key, latency_s=0.0, view=None, error=None):
        self.kind = kind
        self.key = key
        self.latency_s = latency_s
        self.view = view
        self.error = error


class ServiceMix:
    def __init__(self, seed: int, work: Path, tally: Tally):
        self.seed = seed
        self.work = work
        self.tally = tally
        self.bodies: dict[str, dict] = {}  # key -> submission body
        self.results: dict[str, str] = {}  # key -> first results_jsonl seen
        self.submit_s: list[float] = []
        self.poll_s: list[float] = []
        self._pass_no = 0

    # -- the load ---------------------------------------------------------------

    @staticmethod
    def _grid_point(shape: tuple, wl_seed: int) -> dict:
        kind, p, size, variant = shape
        if kind == "rank":  # Fig. 1: list ranking
            wl = Workload(kind, p, wl_seed, {"n": size, "list": variant})
        else:  # Fig. 2: connected components, m = variant * n
            params = {"graph": "random", "n": size, "m": variant * size}
            wl = Workload(kind, p, wl_seed, params, {"instrument_p": 1})
        return {"jobs": [{"workload": wl.canonical(), "backend": be}
                         for be in MODEL_BACKENDS]}

    def _plan(self, pass_no: int) -> list[tuple[str, str]]:
        rng = random.Random(derive_seed(self.seed, "service_mix", pass_no))
        kinds = [kind for kind, count in MIX.items() for _ in range(count)]
        rng.shuffle(kinds)
        kinds.remove("cold")
        kinds.insert(0, "cold")  # a warm step needs a completed grid point
        shapes = list(GRID)
        rng.shuffle(shapes)
        ops, seen = [], []
        for i, kind in enumerate(kinds):
            if kind == "warm":
                key = rng.choice(seen)
            else:
                body = self._grid_point(
                    shapes.pop(), derive_seed(self.seed, "service_mix", pass_no, i)
                )
                key = canonical_json(body)
                self.bodies[key] = body
                seen.append(key)
            ops.append((kind, key))
        return ops

    def _wait(self, client: ServiceClient, job_id: str) -> dict:
        pause, polls = POLL_S, 0
        while True:
            t = time.perf_counter()
            view = client.job(job_id)
            self.poll_s.append(time.perf_counter() - t)
            if view["state"] in TERMINAL_STATES:
                return view
            time.sleep(pause)
            polls += 1
            if polls >= FINE_POLLS:
                pause = min(2 * pause, POLL_MAX_S)

    def _submit(self, client: ServiceClient, kind: str, key: str, out: list) -> None:
        n = BURST if kind == "burst" else 1
        sent, seen = [], 0
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                view = client.submit(self.bodies[key])
                self.submit_s.append(time.perf_counter() - t0)
                sent.append((t0, view["id"]))
            for t0, job_id in sent:
                view = self._wait(client, job_id)
                out.append(Outcome(kind, key, time.perf_counter() - t0, view))
                seen += 1
        except (ServiceError, OSError) as exc:
            out.extend(Outcome(kind, key, error=str(exc)) for _ in range(n - seen))

    def run_pass(self, server: Server) -> tuple[float, list[Outcome]]:
        ops = self._plan(self._pass_no)
        self._pass_no += 1
        outcomes: list[Outcome] = []
        t0 = time.perf_counter()
        for kind, key in ops:
            self._submit(server.client, kind, key, outcomes)
        wall = time.perf_counter() - t0
        self._check(outcomes)
        return wall, outcomes

    # -- checks -----------------------------------------------------------------

    def _check(self, outcomes: list[Outcome]) -> None:
        failed = 0
        for o in outcomes:
            if o.error is not None or o.view["state"] != DONE:
                reason = o.error or o.view.get("error")
                self.tally.note(f"{o.kind} submission did not complete: {reason}")
                failed += 1
                continue
            text = o.view["results_jsonl"]
            first = self.results.setdefault(o.key, text)
            if text != first:
                self.tally.note(f"{o.kind} submission: results differ from the first reply")
                failed += 1
        self.tally.count(len(outcomes), failed)

    def verify(self) -> None:
        """A seeded sample of the distinct submissions: each reply must
        equal a direct serial ``run_jobs`` over the same jobs, byte for
        byte, and every record must pass the summary invariants."""
        keys = sorted(self.results)
        random.Random(self.seed).shuffle(keys)
        keys = keys[:VERIFY_SAMPLE]
        failed = 0
        for key in keys:
            text = self.results[key]
            jobs = [Job(Workload.from_dict(j["workload"]), j["backend"])
                    for j in self.bodies[key]["jobs"]]
            ok = write_jsonl(run_jobs(jobs, workers=1, cache=False)) == text
            if not ok:
                self.tally.note("service reply differs from a direct run_jobs")
            for line in text.splitlines():
                summary = RunSummary.from_dict(json.loads(line)["summary"])
                try:
                    summary.validate()
                except ReproError as exc:
                    self.tally.note(f"service record: {exc}")
                    ok = False
                if not summary.utilization <= 1.0:
                    self.tally.note(f"service record: utilization {summary.utilization} > 1")
                    ok = False
            failed += not ok
        self.tally.count(len(keys), failed)

    def _issued(self, outcomes: list[Outcome]) -> float:
        """Issued ops of the work the server computed: each cold or
        burst grid point once (warm replies are cache reads)."""
        computed = {o.key: o.view["results_jsonl"] for o in outcomes
                    if o.kind != "warm" and o.error is None and o.view["state"] == DONE}
        return sum(json.loads(line)["summary"]["issued"]
                   for text in computed.values() for line in text.splitlines())

    # -- runs -------------------------------------------------------------------

    def _phase(self, server: Server, seconds: float, speed=None) -> list[tuple[float, list]]:
        """One untimed warm-up pass, then passes until ``seconds`` ran
        out, with a host-speed sample after each pass (server idle)."""
        self.run_pass(server)
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.run_pass(server))
            if speed is not None:
                speed.sample()
        return passes

    def measure(self, seconds: float) -> dict:
        speed = HostSpeed()
        speed.sample(3)
        setups = []
        for i in range(SETUP_REPEATS):
            server = Server(self.work, f"setup{i}")
            setups.append(server.setup_s)
            if i < SETUP_REPEATS - 1:
                server.stop()
        try:
            passes = self._phase(server, seconds, speed)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        self.verify()
        f = speed.factor()
        outcomes = [o for _, outs in passes for o in outs if o.error is None]
        return {
            "setup_s": f * median(setups),
            "jobs_per_s": median(len(outs) / (f * wall) for wall, outs in passes),
            "sim_ops_per_s": median(self._issued(outs) / (f * wall) for wall, outs in passes),
            "warm_p50_ms": f * 1e3 * median(o.latency_s for o in outcomes if o.kind == "warm"),
            "cold_p50_ms": f * 1e3 * median(o.latency_s for o in outcomes if o.kind == "cold"),
            "latency_p95_ms": f * 1e3 * p95(o.latency_s for o in outcomes),
            "peak_rss_mb": rss,
        }

    def trace(self, seconds: float) -> dict:
        """Phase A: an instrumented but unprofiled server (timings, cache
        traffic, HTTP costs).  Phase B: a server whose threads are
        profiled (per-thread CPU time); its self times per pass."""
        timings_a = self.work / "timings-a.json"
        server = Server(self.work, "phase-a", ["--timings", str(timings_a)])
        try:
            plain = self._phase(server, seconds / 2)
            metrics_a = server.client.metrics()
        finally:
            server.stop()
        written = sum(f.stat().st_size for f in server.cache_dir.rglob("*.json"))
        # phase B's HTTP timings run against a profiled server: keep A's only
        submit_s, poll_s = list(self.submit_s), list(self.poll_s)
        stats_b = self.work / "phase-b.prof"
        server = Server(self.work, "phase-b",
                        ["--timings", str(self.work / "timings-b.json"),
                         "--profile", str(stats_b)])
        try:
            traced = self._phase(server, seconds / 2)
        finally:
            server.stop()
        self.verify()

        timed = json.loads(timings_a.read_text())
        attr = Attribution(
            pstats.Stats(str(stats_b)), ROOT / "src" / "repro",
            extra={(str(LAUNCHER), name): "sweep_cache" for name in ("timed_get", "timed_put")},
        )
        n_a, n_b = len(plain) + 1, len(traced) + 1  # the warm-up passes count
        counters = metrics_a["counters"]
        latency = metrics_a["latency"]
        out = {f"{layer}.self_s": attr.self_s[layer] / n_b for layer in SELF_LAYERS}
        out.update({
            "inputs.calls": attr.calls("backends.inputs", "_build") / n_b,
            "isa.calls": attr.calls("sim.isa") / n_b,
            "memory.addr_calls": attr.calls("arch.memory", "addr") / n_b,
            "sweep_cache.get_ms": 1e3 * median(timed["get_hit_s"]),
            "sweep_cache.put_ms": 1e3 * median(timed["put_s"]),
            "sweep_cache.hits": counters.get("cache_hits", 0) / n_a,
            "sweep_cache.misses": counters.get("cache_misses", 0) / n_a,
            "sweep_cache.stores": counters.get("cache_stores", 0) / n_a,
            "sweep_cache.bytes_written": written / n_a,
            "http.submit_ms": 1e3 * median(submit_s),
            "http.poll_ms": 1e3 * median(poll_s),
            "http.polls_per_job": len(poll_s) / len(submit_s),
            "service.latency_p50_ms": 1e3 * latency["p50_s"],
            "service.latency_p95_ms": 1e3 * latency["p95_s"],
            "service.coalesce_hits": counters.get("coalesce_hits", 0) / n_a,
            "service.executions": counters.get("executions", 0) / n_a,
            "trace.overhead_ratio": median(w for w, _ in traced) / median(w for w, _ in plain),
        })
        return {"metrics": out, "unmapped": attr.unmapped, "self_s": attr.self_s}
