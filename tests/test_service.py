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
import glob
import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.core.runner as runner_mod
from repro.core.runner import run_jobs, write_jsonl
from repro.service import ExperimentService, ServiceClient, ServiceError
from repro.service.protocol import parse_submission
from repro.workloads import jobs_for

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class Harness:
    """An ExperimentService on its own thread + event loop."""

    def __init__(self, **service_kwargs):
        self.loop = asyncio.new_event_loop()
        self.service_kwargs = service_kwargs
        self.service: ExperimentService | None = None
        self.port: int | None = None
        self.clients: list[ServiceClient] = []
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
        """Stop the service while its clients still hold their
        connections, then close the clients."""
        if self.service is not None:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(drain=drain), self.loop
            ).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()
        for client in self.clients:
            client.close()

    def client(self, **kw) -> ServiceClient:
        client = ServiceClient("127.0.0.1", self.port, **kw)
        self.clients.append(client)
        return client

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
        assert len(c._conns) == 4  # one connection per calling thread

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
        submitted = c.submit(rank_body())
        assert submitted["state"] == "done"  # answered at admission
        second = c.wait(submitted["id"], timeout=30)
        assert second["result"]["jobs_cached"] == 1
        assert second["result"]["jobs_fresh"] == 0
        assert second["results_jsonl"] == first["results_jsonl"]
        m = c.metrics()
        assert m["counters"]["executions"] == 1  # only the cold run executed...
        assert m["counters"]["cache_hits"] == 1  # ...the resubmission hit the cache

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


def raw_exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` on a new socket; everything read until the server
    closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def split_responses(data: bytes) -> list[tuple[int, dict, dict]]:
    """``(status, headers, decoded body)`` of each response in ``data``."""
    out = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        out.append((int(status_line.split()[1]), headers, json.loads(rest[:length])))
        data = rest[length:]
    return out


HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n"


class TestPersistentConnections:
    def test_requests_ride_one_connection(self, harness):
        h = harness()
        c = h.client()
        c.health()
        sock = c._connection().sock
        view = c.submit(rank_body(n=64))
        assert c.wait(view["id"], timeout=30)["state"] == "done"
        c.metrics()
        assert c._connection().sock is sock
        assert h.on_loop(lambda: len(h.service._conns)) == 1

    def test_pipelined_requests_on_a_raw_socket(self, harness):
        h = harness()
        close = HEALTH.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
        replies = split_responses(raw_exchange(h.port, HEALTH + HEALTH + close))
        assert [status for status, _, _ in replies] == [200, 200, 200]
        assert [headers["connection"] for _, headers, _ in replies] == [
            "keep-alive", "keep-alive", "close"]

    @pytest.mark.parametrize("request_bytes", [
        b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /v1/health HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_one_response_then_eof(self, harness, request_bytes):
        replies = split_responses(raw_exchange(harness().port, request_bytes))
        assert len(replies) == 1
        status, headers, body = replies[0]
        assert (status, headers["connection"], body["status"]) == (200, "close", "ok")

    @pytest.mark.parametrize("malformed", [
        b"NONSENSE\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
        b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    ], ids=["request-line", "content-length", "body", "chunked"])
    def test_malformed_request_is_400_then_close(self, harness, malformed):
        replies = split_responses(raw_exchange(harness().port, HEALTH + malformed))
        assert [(status, headers["connection"]) for status, headers, _ in replies] == [
            (200, "keep-alive"), (400, "close")]
        assert replies[1][2]["error"]["code"] == "bad_request"

    def test_pipelining_client_does_not_hold_the_loop(self, harness):
        """A pipelining client's next request is always buffered, so
        the server yields before serving each such request: another
        connection's request is answered between two of its requests,
        not after the buffered backlog."""
        h = harness()
        routed = []
        route = h.service._route

        def logged(method, path, body):
            routed.append(path)
            return route(method, path, body)

        h.service._route = logged
        close = HEALTH.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
        with socket.create_connection(("127.0.0.1", h.port), timeout=30) as busy:

            def drain():  # read every answer, so the server never waits on writes
                while busy.recv(1 << 16):
                    pass

            threads = [
                threading.Thread(target=drain),
                threading.Thread(target=busy.sendall, args=(HEALTH * 19_999 + close,)),
            ]
            for t in threads:
                t.start()
            wait_for(lambda: len(routed) >= 1)
            before = len(routed)
            metrics = b"GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
            [(status, _, _)] = split_responses(raw_exchange(h.port, metrics))
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        assert status == 200
        assert len(routed) == 20_001
        assert routed.index("/v1/metrics") - before < 50

    def test_client_reconnects_after_the_server_closes(self, harness):
        h = harness()
        c = h.client()
        c.health()
        sock = c._connection().sock
        # the server drops the idle connection under the client
        h.on_loop(lambda: [writer.close() for writer in h.service._idle])
        wait_for(lambda: h.on_loop(lambda: len(h.service._conns)) == 0)
        view = c.submit(rank_body(n=64))  # retried once, on a new connection
        assert c._connection().sock is not sock
        assert c.wait(view["id"], timeout=30)["state"] == "done"
        assert c.metrics()["counters"]["submitted"] == 1

    def test_retry_is_single_and_failure_stays_transport(self, tmp_path, monkeypatch):
        h = Harness(cache=str(tmp_path / "cache"), job_workers=0).start()
        with ServiceClient("127.0.0.1", h.port) as c:  # not closed by h.stop()
            c.health()
            h.stop()  # closes the server's side of c's idle connection
            connects = []
            real_connect = http.client.HTTPConnection.connect

            def counted_connect(self):
                connects.append(self)
                return real_connect(self)

            monkeypatch.setattr(http.client.HTTPConnection, "connect", counted_connect)
            with pytest.raises(ServiceError) as exc:
                c.health()
        assert exc.value.code == "transport"
        assert len(connects) == 1  # the stale connection's one retry, refused

    def test_stop_returns_with_idle_connections_open(self, tmp_path):
        h = Harness(cache=str(tmp_path / "cache"), job_workers=0).start()
        c = h.client()
        c.health()  # a keep-alive connection, now idle
        with socket.create_connection(("127.0.0.1", h.port), timeout=10) as idle:
            wait_for(lambda: h.on_loop(lambda: len(h.service._conns)) == 2)
            t0 = time.monotonic()
            h.stop()
            assert time.monotonic() - t0 < 2  # stop() waits 5 s for busy handlers
            assert h.service._conns == {}
            assert idle.recv(1) == b""  # the server closed it

    def test_stop_drops_a_client_that_stopped_reading(self, tmp_path):
        h = Harness(cache=str(tmp_path / "cache"), job_workers=0).start()
        with socket.socket() as stuck:
            stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stuck.connect(("127.0.0.1", h.port))
            stuck.setblocking(False)
            try:  # pipelined requests whose answers overflow every buffer
                for _ in range(1_000_000):
                    stuck.send(HEALTH)
            except BlockingIOError:
                pass
            t0 = time.monotonic()
            h.stop()
            assert time.monotonic() - t0 < 10  # 5 s for busy handlers, then abort
            assert h.service._conns == {}

    def test_serve_exits_on_sigint_with_idle_connections(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stderr.readline()
            assert "listening on http://" in line, line
            with ServiceClient(port=int(line.rsplit(":", 1)[1])) as c:
                c.wait_until_up(timeout=30)
                assert c.wait(c.submit(rank_body(n=64))["id"], timeout=60)["state"] == "done"
                t0 = time.monotonic()
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=30)
                assert time.monotonic() - t0 < 4  # stop() waits 5 s for busy handlers
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert "draining" in err


TWO_JOBS = {"jobs": [rank_body(), rank_body(backend="mta-model")]}


class TestAnswerAtAdmission:
    """A submission whose every job already has a stored record is
    answered by ``submit`` itself: no queue slot, no execution."""

    def test_resubmission_is_done_at_admission(self, harness):
        c = harness().client()
        cold = c.wait(c.submit(TWO_JOBS)["id"], timeout=30)
        view = c.submit(TWO_JOBS)
        assert view["state"] == "done"
        assert view["result"] == {"jobs": 2, "jobs_cached": 2, "jobs_fresh": 0}
        warm = c.job(view["id"])  # the first GET carries the results
        direct = write_jsonl(run_jobs(parse_submission(TWO_JOBS).jobs, cache=False))
        assert warm["results_jsonl"] == cold["results_jsonl"] == direct
        counters = c.metrics()["counters"]
        assert counters["executions"] == 1
        assert counters["cache_answers"] == 1
        assert counters["completed"] == 2

    def test_warm_submission_hashes_each_job_key_once(self, harness, monkeypatch):
        """Parsing hashes each job's cache key; the submission key and the
        admission lookup reuse those keys (4 hashes for 2 jobs before)."""
        c = harness().client()
        c.wait(c.submit(TWO_JOBS)["id"], timeout=30)
        keyed = []
        real_key = runner_mod.Job.key

        def counted_key(job):
            keyed.append(job)
            return real_key(job)

        monkeypatch.setattr(runner_mod.Job, "key", counted_key)
        assert c.submit(TWO_JOBS)["state"] == "done"
        assert len(keyed) == 2

    def test_partly_cached_submission_executes(self, harness):
        c = harness().client()
        c.wait(c.submit(rank_body(seed=0))["id"], timeout=30)
        view = c.submit({"jobs": [rank_body(seed=0), rank_body(seed=1)]})
        assert view["state"] == "queued"
        final = c.wait(view["id"], timeout=30)
        assert final["result"] == {"jobs": 2, "jobs_cached": 1, "jobs_fresh": 1}
        counters = c.metrics()["counters"]
        assert counters["executions"] == 2
        assert counters.get("cache_answers", 0) == 0
        # the admission lookups that missed are not counted: only the
        # executions' (seed 0: miss; seeds 0 and 1: hit, miss)
        assert (counters["cache_hits"], counters["cache_misses"],
                counters["cache_stores"]) == (1, 2, 2)

    def test_duplicate_of_in_flight_work_coalesces(self, harness, gate, tmp_path):
        opened, calls = gate
        opened.set()
        h = harness(dispatchers=1, queue_limit=4)
        c = h.client()
        cold = c.wait(c.submit(rank_body())["id"], timeout=30)
        (stored,) = glob.glob(str(tmp_path / "cache" / "rows" / "*" / "*.json"))
        os.replace(stored, stored + ".aside")
        opened.clear()
        leader = c.submit(rank_body())
        wait_for(lambda: len(calls) == 2)  # the leader missed the cache and runs
        os.replace(stored + ".aside", stored)  # the record is back while in flight
        twin = c.submit(rank_body())
        assert twin["coalesced_with"] == leader["id"]
        opened.set()
        finals = [c.wait(v["id"], timeout=30) for v in (leader, twin)]
        assert {f["results_jsonl"] for f in finals} == {cold["results_jsonl"]}
        assert len(calls) == 2

    def test_draining_server_refuses_cached_work(self, harness):
        h = harness()
        c = h.client()
        c.wait(c.submit(rank_body())["id"], timeout=30)
        h.on_loop(lambda: setattr(h.service, "_draining", True))
        with pytest.raises(ServiceError) as exc:
            c.submit(rank_body())
        assert exc.value.code == "shutting_down" and exc.value.status == 503

    def test_answered_while_the_queue_is_full(self, harness, gate):
        opened, _ = gate
        opened.set()
        h = harness(dispatchers=1, queue_limit=1)
        c = h.client()
        cold = c.wait(c.submit(rank_body(seed=0))["id"], timeout=30)
        opened.clear()
        running = c.submit(rank_body(seed=1))
        wait_for(lambda: c.job(running["id"])["state"] == "running")
        queued = c.submit(rank_body(seed=2))
        with pytest.raises(ServiceError) as exc:
            c.submit(rank_body(seed=3))
        assert exc.value.code == "queue_full"
        view = c.submit(rank_body(seed=0))
        assert view["state"] == "done"
        assert c.job(view["id"])["results_jsonl"] == cold["results_jsonl"]
        opened.set()
        for v in (running, queued):
            assert c.wait(v["id"], timeout=30)["state"] == "done"

    def test_cache_disabled_server_never_answers_at_admission(self, harness):
        c = harness(cache=False).client()
        cold = c.wait(c.submit(rank_body())["id"], timeout=30)
        view = c.submit(rank_body())
        assert view["state"] == "queued"
        final = c.wait(view["id"], timeout=30)
        assert final["result"]["jobs_fresh"] == 1
        assert final["results_jsonl"] == cold["results_jsonl"]
        counters = c.metrics()["counters"]
        assert counters["executions"] == 2
        assert counters.get("cache_answers", 0) == 0


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
