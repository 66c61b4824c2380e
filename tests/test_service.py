"""End-to-end tests for the experiment service (repro.service).

Each test runs a real :class:`ExperimentService` — sockets, HTTP, and
all — inside a dedicated thread + event loop, and talks to it through
the stdlib :class:`ServiceClient`, exactly as ``repro submit`` does.

To make coalescing and admission races deterministic, executions can
be held at a *gate*: ``_execute_payload`` is patched to block until
the test opens a :class:`threading.Event`, so "in flight" lasts
exactly as long as the test needs it to.
"""

import asyncio
import json
import threading

import pytest

import repro.core.runner as runner_mod
from repro.core.runner import run_jobs, write_jsonl
from repro.service import ExperimentService, ServiceClient, ServiceError
from repro.workloads import jobs_for


class Harness:
    """An ExperimentService on its own thread + event loop."""

    def __init__(self, **service_kwargs):
        self.loop = asyncio.new_event_loop()
        self.service_kwargs = service_kwargs
        self.service: ExperimentService | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.service = ExperimentService(**self.service_kwargs)
        self.port = self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> "Harness":
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"
        return self

    def stop(self, drain: bool = True) -> None:
        if self.service is not None:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(drain=drain), self.loop
            ).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()

    def client(self, **kw) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kw)

    def on_loop(self, fn):
        """Run ``fn()`` on the service's event loop and return its value."""
        done = threading.Event()
        box = {}

        def call():
            box["value"] = fn()
            done.set()

        self.loop.call_soon_threadsafe(call)
        assert done.wait(10)
        return box["value"]


@pytest.fixture
def harness(tmp_path):
    made = []

    def make(**kw):
        kw.setdefault("cache", str(tmp_path / "cache"))
        kw.setdefault("job_workers", 0)
        h = Harness(**kw).start()
        made.append(h)
        return h

    yield make
    for h in made:
        h.stop()


@pytest.fixture
def gate(monkeypatch):
    """Hold every execution until the test opens the gate."""
    opened = threading.Event()
    calls = []
    real = runner_mod._execute_payload

    def gated(payload):
        calls.append(payload)
        if not opened.wait(timeout=60):  # pragma: no cover - hang guard
            raise RuntimeError("gate never opened")
        return real(payload)

    monkeypatch.setattr(runner_mod, "_execute_payload", gated)
    yield opened, calls
    opened.set()


def rank_body(n=512, seed=0, **extra):
    body = {
        "workload": {
            "kind": "rank",
            "p": 2,
            "seed": seed,
            "params": {"n": n, "list": "random"},
        },
        "backend": "smp-model",
    }
    body.update(extra)
    return body


def wait_for(predicate, timeout=10.0, poll=0.02):
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition never became true")
        time.sleep(poll)


class TestBasics:
    def test_health_and_unknown_routes(self, harness):
        h = harness()
        c = h.client()
        assert c.wait_until_up()["status"] == "ok"
        with pytest.raises(ServiceError) as exc:
            c._request("GET", "/v1/nope")
        assert exc.value.code == "not_found" and exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            c._request("PUT", "/v1/jobs")
        assert exc.value.code == "not_found"

    def test_submit_run_fetch(self, harness):
        h = harness()
        c = h.client()
        view = c.submit(rank_body())
        assert view["state"] == "queued" and view["id"].startswith("j-")
        done = c.wait(view["id"], timeout=30)
        assert done["state"] == "done"
        assert done["result"] == {"jobs": 1, "jobs_cached": 0, "jobs_fresh": 1}
        record = json.loads(done["results_jsonl"])
        assert record["backend"] == "smp-model"
        assert record["summary"]["cycles"] > 0
        listed = c.jobs()["jobs"]
        assert [j["id"] for j in listed] == [view["id"]]

    def test_unknown_job_is_404(self, harness):
        c = harness().client()
        with pytest.raises(ServiceError) as exc:
            c.job("j-999999")
        assert exc.value.code == "not_found"

    def test_malformed_body_is_structured_400(self, harness):
        c = harness().client()
        with pytest.raises(ServiceError) as exc:
            c.submit({"spec": "no-such-sweep"})
        assert exc.value.code == "bad_request" and exc.value.status == 400

    def test_malformed_workload_param_is_execution_error(self, harness):
        c = harness().client()
        body = {
            "workload": {"kind": "cc", "p": 2, "params": {"n": 64, "graph": "rmat"}},
            "backend": "smp-model",
        }
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "'scale'" in final["error"]["message"]

    def test_retired_check_option_is_execution_error(self, harness):
        c = harness().client()
        body = rank_body(n=64, backend="smp-engine")
        body["workload"]["options"] = {"check": True}
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "repro analyze" in final["error"]["message"]

    @pytest.mark.parametrize("spec", [1, [1, 2], {"every": "x"}, {"every": 0}])
    def test_malformed_checkpoint_option_is_execution_error(self, harness, spec):
        c = harness().client()
        body = rank_body(n=64, backend="smp-engine")
        body["workload"]["options"] = {"checkpoint": spec}
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "checkpoint" in final["error"]["message"]

    def test_malformed_machine_config_is_execution_error(self, harness):
        c = harness().client()
        body = rank_body(backend_options={"config": {"stream_overlap": 0}})
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "stream_overlap" in final["error"]["message"]

    def test_malformed_model_config_is_execution_error(self, harness):
        c = harness().client()
        body = rank_body(backend="cluster-model",
                         backend_options={"config": {"barrier_us": "x"}})
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "barrier_us" in final["error"]["message"]

    def test_fractional_integer_setting_is_execution_error(self, harness):
        c = harness().client()
        body = rank_body(backend="mta-model",
                         backend_options={"config": {"streams_per_proc": 2.5}})
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "streams_per_proc must be an integer" in final["error"]["message"]

    def test_unknown_backend_option_is_execution_error(self, harness):
        c = harness().client()
        body = rank_body(backend="mta-engine", backend_options={"config": {"mem_latency": 5}})
        final = c.wait(c.submit(body)["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "execution_error"
        assert "'mta-engine'" in final["error"]["message"]

    def test_metrics_shape(self, harness):
        c = harness().client()
        c.wait(c.submit(rank_body())["id"], timeout=30)
        m = c.metrics()
        for key in ("uptime_s", "queue_depth", "in_flight", "draining",
                    "counters", "latency"):
            assert key in m
        assert m["counters"]["completed"] == 1
        for key in ("count", "p50_s", "p95_s"):
            assert key in m["latency"]
        assert m["latency"]["count"] == 1


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self, harness, gate):
        """The tentpole acceptance gate: N concurrent identical
        submissions → one execution, byte-identical results for all."""
        opened, calls = gate
        h = harness(dispatchers=2, queue_limit=8)
        c = h.client()

        leader = c.submit(rank_body(n=1024))
        wait_for(lambda: c.job(leader["id"])["state"] == "running")

        views, errors = [], []

        def submit_one():
            try:
                views.append(c.submit(rank_body(n=1024)))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submit_one) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors
        assert all(v["coalesced_with"] == leader["id"] for v in views)

        opened.set()
        finals = [c.wait(v["id"], timeout=30) for v in [leader] + views]
        assert all(f["state"] == "done" for f in finals)
        blobs = {f["results_jsonl"] for f in finals}
        assert len(blobs) == 1  # byte-identical for every submitter

        m = c.metrics()
        assert m["counters"]["executions"] == 1
        assert m["counters"]["coalesce_hits"] == 3
        assert len(calls) == 1  # the kernel really ran once

    def test_warm_cache_after_completion(self, harness):
        h = harness()
        c = h.client()
        first = c.wait(c.submit(rank_body())["id"], timeout=30)
        second = c.wait(c.submit(rank_body())["id"], timeout=30)
        assert second["result"]["jobs_cached"] == 1
        assert second["result"]["jobs_fresh"] == 0
        assert second["results_jsonl"] == first["results_jsonl"]
        m = c.metrics()
        assert m["counters"]["executions"] == 2  # two executions...
        assert m["counters"]["cache_hits"] == 1  # ...but one hit the cache

    def test_different_work_does_not_coalesce(self, harness, gate):
        opened, _ = gate
        h = harness(dispatchers=2, queue_limit=8)
        c = h.client()
        a = c.submit(rank_body(seed=0))
        b = c.submit(rank_body(seed=1))
        assert b["coalesced_with"] is None
        opened.set()
        assert c.wait(a["id"], timeout=30)["state"] == "done"
        assert c.wait(b["id"], timeout=30)["state"] == "done"
        assert c.metrics()["counters"]["executions"] == 2


class TestAdmissionControl:
    def test_queue_full_is_structured_rejection(self, harness, gate):
        opened, _ = gate
        h = harness(dispatchers=1, queue_limit=1)
        c = h.client()

        running = c.submit(rank_body(seed=0))
        wait_for(lambda: c.job(running["id"])["state"] == "running")
        queued = c.submit(rank_body(seed=1))

        with pytest.raises(ServiceError) as exc:
            c.submit(rank_body(seed=2))
        assert exc.value.code == "queue_full"
        assert exc.value.status == 429

        # identical work still coalesces even with the queue full
        follower = c.submit(rank_body(seed=1))
        assert follower["coalesced_with"] == queued["id"]

        opened.set()
        for v in (running, queued, follower):
            assert c.wait(v["id"], timeout=30)["state"] == "done"
        m = c.metrics()
        assert m["counters"]["rejected_queue_full"] == 1
        assert m["counters"]["coalesce_hits"] == 1

    def test_priority_orders_the_backlog(self, harness, gate):
        opened, calls = gate
        h = harness(dispatchers=1, queue_limit=8)
        c = h.client()
        blocker = c.submit(rank_body(seed=0))
        wait_for(lambda: c.job(blocker["id"])["state"] == "running")
        low = c.submit(rank_body(seed=1, priority=0))
        high = c.submit(rank_body(seed=2, priority=10))
        opened.set()
        for v in (blocker, low, high):
            c.wait(v["id"], timeout=30)
        # execution order: blocker first, then high before low
        seeds = [p["workload"]["seed"] for p in calls]
        assert seeds.index(2) < seeds.index(1)


class TestCancellation:
    def batch(self, seeds=(0, 1, 2)):
        return {"jobs": [rank_body(seed=s) for s in seeds]}

    def test_cancel_queued_job(self, harness, gate):
        opened, _ = gate
        h = harness(dispatchers=1, queue_limit=4)
        c = h.client()
        running = c.submit(rank_body(seed=0))
        wait_for(lambda: c.job(running["id"])["state"] == "running")
        queued = c.submit(rank_body(seed=1))
        view = c.cancel(queued["id"])
        assert view["state"] == "cancelled"
        assert view["error"]["code"] == "cancelled"
        opened.set()
        assert c.wait(running["id"], timeout=30)["state"] == "done"
        assert c.metrics()["counters"]["cancelled"] == 1

    def test_cancel_running_job_unwinds_cleanly(self, harness, gate):
        opened, calls = gate
        h = harness(dispatchers=1, queue_limit=4)
        c = h.client()
        view = c.submit(self.batch())
        wait_for(lambda: len(calls) == 1)  # first of three jobs at the gate
        cancelled = c.cancel(view["id"])
        assert cancelled["cancel_requested"]
        opened.set()  # job 1 finishes; the runner then sees the cancel
        final = c.wait(view["id"], timeout=30)
        assert final["state"] == "cancelled"
        assert final["error"]["code"] == "cancelled"
        assert len(calls) == 1  # jobs 2 and 3 never started

    def test_cancel_follower_leaves_leader_alone(self, harness, gate):
        opened, _ = gate
        h = harness(dispatchers=1, queue_limit=4)
        c = h.client()
        leader = c.submit(rank_body())
        wait_for(lambda: c.job(leader["id"])["state"] == "running")
        follower = c.submit(rank_body())
        assert follower["coalesced_with"] == leader["id"]
        assert c.cancel(follower["id"])["cancel_requested"]
        wait_for(lambda: c.job(follower["id"])["state"] == "cancelled")
        opened.set()
        assert c.wait(leader["id"], timeout=30)["state"] == "done"

    def test_cancel_leader_cancels_followers(self, harness, gate):
        opened, calls = gate
        h = harness(dispatchers=1, queue_limit=4)
        c = h.client()
        leader = c.submit(self.batch())
        wait_for(lambda: len(calls) == 1)
        follower = c.submit(self.batch())
        assert follower["coalesced_with"] == leader["id"]
        c.cancel(leader["id"])
        opened.set()
        assert c.wait(leader["id"], timeout=30)["state"] == "cancelled"
        assert c.wait(follower["id"], timeout=30)["state"] == "cancelled"

    def test_cancel_is_idempotent(self, harness):
        c = harness().client()
        done = c.wait(c.submit(rank_body())["id"], timeout=30)
        again = c.cancel(done["id"])
        assert again["state"] == "done"  # terminal states never regress


class TestTimeouts:
    def test_per_submission_timeout_fails_structured(self, harness, gate):
        opened, calls = gate
        h = harness(dispatchers=1, queue_limit=4)
        c = h.client()
        view = c.submit({**TestCancellation().batch(), "timeout_s": 0.3})
        final = c.wait(view["id"], timeout=30)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "timeout"
        assert c.metrics()["counters"]["timeouts"] == 1
        opened.set()  # release the stuck executor thread


class TestDrain:
    def test_draining_rejects_submissions(self, harness):
        h = harness()
        c = h.client()
        h.on_loop(lambda: setattr(h.service, "_draining", True))
        with pytest.raises(ServiceError) as exc:
            c.submit(rank_body())
        assert exc.value.code == "shutting_down" and exc.value.status == 503

    def test_graceful_stop_finishes_queued_work(self, tmp_path):
        h = Harness(cache=str(tmp_path / "cache"), job_workers=0).start()
        c = h.client()
        views = [c.submit(rank_body(seed=s)) for s in range(3)]
        h.stop(drain=True)  # returns only after the backlog drains
        svc = h.service
        assert all(svc._jobs[v["id"]].state == "done" for v in views)


class TestDeterminismThroughService:
    """The runner's byte-determinism guarantees survive the service path."""

    def test_sweep_via_service_matches_direct_runner(self, harness):
        h = harness(dispatchers=2)
        c = h.client()
        final = c.wait(c.submit({"spec": "fig2-tiny"})["id"], timeout=120)
        assert final["state"] == "done"
        direct = write_jsonl(run_jobs(jobs_for("fig2-tiny"), cache=False))
        assert final["results_jsonl"] == direct

    def test_engine_workload_via_service_matches_direct(self, harness):
        body = {
            "workload": {
                "kind": "rank",
                "p": 2,
                "seed": 7,
                "params": {"n": 512, "list": "random"},
            },
            "backend": "mta-engine",
            "backend_options": {},
        }
        c = harness().client()
        cold = c.wait(c.submit(body)["id"], timeout=60)
        warm = c.wait(c.submit(body)["id"], timeout=60)
        from repro.backends import Workload
        from repro.core.runner import Job

        direct = write_jsonl(
            run_jobs(
                [Job(Workload.from_dict(body["workload"]), "mta-engine")],
                cache=False,
            )
        )
        assert cold["results_jsonl"] == direct
        assert warm["results_jsonl"] == direct
        assert warm["result"]["jobs_cached"] == 1


class TestCliSubmit:
    def test_submit_waits_and_reports(self, harness, capsys):
        from repro.cli import main

        h = harness()
        argv = ["submit", "--port", str(h.port), "--workload", "rank",
                "--backend", "smp-model", "--n", "512", "--p", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "done" in out and "1 fresh" in out
        assert main(argv) == 0  # warm rerun hits the cache
        assert "cached" in capsys.readouterr().out

    def test_submit_spec_json(self, harness, capsys):
        from repro.cli import main

        h = harness()
        assert main(
            ["submit", "--port", str(h.port), "--spec", "fig1-tiny", "--json"]
        ) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["state"] == "done"
        assert view["submission"]["spec"] == "fig1-tiny"

    def test_submit_no_wait(self, harness, capsys):
        from repro.cli import main

        h = harness()
        assert main(
            ["submit", "--port", str(h.port), "--workload", "rank",
             "--backend", "smp-model", "--n", "256", "--no-wait"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("j-")

    def test_submit_requires_exactly_one_form(self, capsys):
        from repro.cli import main

        assert main(["submit", "--spec", "fig1-tiny", "--workload", "rank"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_submit_unreachable_server_is_error(self, capsys):
        from repro.cli import main

        # nothing listens on this port
        assert main(
            ["submit", "--port", "1", "--workload", "rank",
             "--backend", "smp-model"]
        ) == 2
        assert "failed" in capsys.readouterr().err
