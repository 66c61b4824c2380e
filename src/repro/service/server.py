"""The experiment service: an asyncio job server over the sweep runner.

Architecture (one event loop, no third-party dependencies)::

    connection ──> request, request, ...   (HTTP/1.1 keep-alive)
                      │
    POST /v1/jobs ──> parse ──> coalescer ──┬─ follower: await leader future
                                            ├─ every job cached: done at admission
                                            └─ leader:  admission queue
                                                            │ (bounded; full → 429)
                              dispatcher tasks  <───────────┘
                                    │ run_in_executor (thread)
                                    ▼
                        run_jobs(...)  — the sweep runner, unchanged
                        (process pool or serial, disk cache, cancel hook)

One handler task per connection serves its requests in order until the
client closes it, asks for ``Connection: close``, speaks HTTP/1.0 or
sends a malformed request (answered 400, then closed), or the server
drains.  The event loop only ever parses requests, moves bookkeeping
and reads the cache records of a submission it can answer at
admission; executions happen on a small thread pool, each thread
either running the sweep serially or managing its own process pool
(``job_workers``).  Determinism is inherited wholesale from the
runner: both paths read records through
:func:`repro.core.runner.cached_result` and the service stores each
submission's results as the canonical JSON Lines text of
:func:`repro.core.runner.write_jsonl`, so two submissions of the same
work — coalesced, answered at admission, cache-warm, or cold — return
byte-identical ``results_jsonl``.

Lifecycle of a job record::

    queued ──> running ──> done
       │          │    └──> failed     (execution error / timeout)
       └──────────┴───────> cancelled  (DELETE, or drain without grace)

Shutdown (:meth:`ExperimentService.stop`) closes admission first
(submissions get a structured ``shutting_down`` rejection, and every
response says ``Connection: close``), then drains: queued and running
work completes within ``drain_timeout`` seconds, after which
stragglers are cancelled through the runner's cancel hook.  Last, the
listening socket and the connections idle between requests close.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Event as ThreadEvent
from typing import Any

from ..core.cache import SweepCache
from ..core.runner import SweepCancelled, cached_result, run_jobs, write_jsonl
from ..errors import ConfigurationError, ReproError
from .coalescer import Coalescer
from .metrics import ServiceMetrics
from .protocol import (
    CANCELLED,
    DONE,
    ERR_BAD_REQUEST,
    ERR_CANCELLED,
    ERR_EXECUTION,
    ERR_INTERNAL,
    ERR_NOT_FOUND,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    ProtocolError,
    Submission,
    parse_submission,
)
from .queue import AdmissionQueue, QueueFullError

__all__ = ["ExperimentService", "JobRecord", "serve"]

_MAX_BODY_BYTES = 8 << 20
_ENCODE = json.JSONEncoder(sort_keys=True).encode
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class JobRecord:
    """Server-side state of one submission."""

    id: str
    submission: Submission
    key: str
    state: str = QUEUED
    created_wall: float = field(default_factory=time.time)
    created_mono: float = field(default_factory=time.monotonic)
    started_mono: float | None = None
    finished_mono: float | None = None
    error: dict | None = None
    results_jsonl: str | None = None
    jobs_cached: int = 0
    jobs_fresh: int = 0
    coalesced_with: str | None = None
    cancel_requested: bool = False
    cancel_event: ThreadEvent = field(default_factory=ThreadEvent)
    task: asyncio.Task | None = None
    cache_used: SweepCache | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def elapsed_s(self) -> float:
        end = self.finished_mono if self.finished_mono is not None else time.monotonic()
        return end - self.created_mono

    def view(self, *, include_results: bool = True) -> dict:
        out: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "key": self.key,
            "submission": self.submission.describe(),
            "created_at": self.created_wall,
            "elapsed_s": self.elapsed_s(),
            "coalesced_with": self.coalesced_with,
            "cancel_requested": self.cancel_requested,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.state == DONE:
            out["result"] = {
                "jobs": self.jobs_cached + self.jobs_fresh,
                "jobs_cached": self.jobs_cached,
                "jobs_fresh": self.jobs_fresh,
            }
            if include_results:
                out["results_jsonl"] = self.results_jsonl
        return out


class ExperimentService:
    """The long-lived job service; see the module docstring for shape.

    Parameters
    ----------
    queue_limit:
        Admission bound.  Submissions beyond it are rejected with a
        structured ``queue_full`` error — never buffered.
    dispatchers:
        Concurrent executions (asyncio dispatcher tasks, each backed
        by one executor thread).
    job_workers:
        ``workers`` passed to :func:`repro.core.runner.run_jobs` for
        each execution: 0/1 = serial in the executor thread, N > 1 = a
        process pool per execution.
    default_timeout_s:
        Wall-clock budget applied to submissions that don't carry
        their own ``timeout_s``; ``None`` = unlimited.
    cache:
        ``True`` (default root), ``False`` (disabled), or a path —
        the on-disk result cache executions read and write.
    cache_max_entries / cache_max_bytes:
        LRU caps applied to that cache (see :class:`SweepCache`).
    checkpoint_every / checkpoint_dir:
        Default checkpoint spec applied to every execution (a
        submission's own ``checkpoint`` object overrides field by
        field).  With a spec active, engine-backend jobs snapshot
        periodically and auto-resume, and a graceful drain that has to
        cancel an in-flight execution checkpoints it first (serial
        ``job_workers``): the runner's cancel hook is polled at
        snapshot boundaries, so the pause persists the final state
        before :class:`SweepCancelled` unwinds.
    max_jobs_tracked:
        Completed-job records kept for ``GET /v1/jobs/{id}``; the
        oldest terminal records beyond this are forgotten.
    """

    def __init__(
        self,
        *,
        queue_limit: int = 64,
        dispatchers: int = 2,
        job_workers: int = 1,
        default_timeout_s: float | None = None,
        cache: bool | str = True,
        cache_max_entries: int | None = None,
        cache_max_bytes: int | None = None,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | None = None,
        max_jobs_tracked: int = 10_000,
    ):
        if dispatchers < 1:
            raise ConfigurationError(f"dispatchers must be >= 1, got {dispatchers}")
        if job_workers < 0:
            raise ConfigurationError(f"job_workers must be >= 0, got {job_workers}")
        self._queue = AdmissionQueue(queue_limit)
        self._coalescer = Coalescer()
        self.metrics = ServiceMetrics()
        self._dispatcher_count = dispatchers
        self._job_workers = job_workers
        self._default_timeout_s = default_timeout_s
        self._cache_conf = cache
        self._cache_caps = {
            "max_entries": cache_max_entries,
            "max_bytes": cache_max_bytes,
        }
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._checkpoint_every = checkpoint_every
        self._checkpoint_dir = checkpoint_dir
        self._max_jobs_tracked = max_jobs_tracked
        self._jobs: dict[str, JobRecord] = {}
        self._seq = 0
        self._draining = False
        self._in_flight = 0
        self._server: asyncio.AbstractServer | None = None
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}  # handler → writer
        self._idle: set[asyncio.StreamWriter] = set()
        self._dispatchers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self.port: int | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind, spawn dispatchers, and return the bound port."""
        self._executor = ThreadPoolExecutor(
            max_workers=self._dispatcher_count,
            thread_name_prefix="repro-service",
        )
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatcher-{i}")
            for i in range(self._dispatcher_count)
        ]
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self, *, drain: bool = True, drain_timeout: float = 30.0) -> None:
        """Stop accepting, drain (or cancel) the backlog, release resources."""
        self._draining = True
        self._queue.close()
        if not drain:
            for record in self._queue.remove(lambda r: True):
                self._cancel_queued(record, "cancelled at shutdown")
            for record in self._jobs.values():
                if record.state == RUNNING:
                    record.cancel_event.set()
        if self._dispatchers:
            done, pending = await asyncio.wait(self._dispatchers, timeout=drain_timeout)
            if pending:
                # drain budget exhausted: cancel stragglers through the
                # runner's hook, then give them a short grace to unwind
                for record in self._jobs.values():
                    if record.state == RUNNING:
                        record.cancel_event.set()
                await asyncio.wait(pending, timeout=10.0)
        followers = [
            r.task
            for r in self._jobs.values()
            if r.task is not None and not r.task.done()
        ]
        if followers:
            await asyncio.wait(followers, timeout=5.0)
        if self._server is not None:
            self._server.close()
            # a connection idle between requests would keep its handler,
            # and Server.wait_closed on Python 3.12+, waiting for ever
            for writer in self._idle:
                writer.close()
            if self._conns:
                _, stuck = await asyncio.wait(list(self._conns), timeout=5.0)
                if stuck:  # clients that stopped reading their responses
                    for task in stuck:
                        self._conns[task].transport.abort()
                    await asyncio.wait(stuck, timeout=1.0)
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    # -- submission / cancellation (event-loop thread) ---------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"j-{self._seq:06d}"

    def _track(self, record: JobRecord) -> None:
        self._jobs[record.id] = record
        if len(self._jobs) > self._max_jobs_tracked:
            for jid in [
                jid for jid, r in self._jobs.items() if r.terminal
            ][: len(self._jobs) - self._max_jobs_tracked]:
                del self._jobs[jid]

    def submit(self, body: Any) -> dict:
        """Admit one submission; returns its job view: ``queued``, or
        ``done`` when the cache already holds every job's record."""
        if self._draining:
            self.metrics.inc("rejected_shutting_down")
            raise ProtocolError(ERR_SHUTTING_DOWN, "service is draining")
        submission = parse_submission(body)
        self.metrics.inc("submitted")
        record = JobRecord(
            id=self._next_id(), submission=submission, key=submission.key
        )

        entry = self._coalescer.attach(record.key, record.id)
        if entry is not None:
            # duplicate of in-flight work: no queue slot, no execution
            record.coalesced_with = entry.leader_id
            self.metrics.inc("coalesce_hits")
            self._track(record)
            record.task = asyncio.create_task(
                self._follow(record, entry.future), name=f"follow-{record.id}"
            )
            return record.view(include_results=False)

        payload = self._cached_payload(submission)
        if payload is not None:
            # finished work: no queue slot, no execution
            self.metrics.inc("cache_answers")
            self._track(record)
            self._finish(record, DONE, payload=payload)
            self.metrics.inc("completed")
            return record.view(include_results=False)

        entry = self._coalescer.lead(record.key, record.id)
        try:
            self._queue.put_nowait(record, submission.priority)
        except QueueFullError as exc:
            self._coalescer.reject(
                record.key, ProtocolError(ERR_QUEUE_FULL, str(exc))
            )
            self.metrics.inc("rejected_queue_full")
            raise ProtocolError(ERR_QUEUE_FULL, str(exc)) from None
        self.metrics.inc("accepted")
        self._track(record)
        return record.view(include_results=False)

    def cancel(self, job_id: str) -> dict:
        """Cancel a job (idempotent); returns its current view."""
        record = self._get_record(job_id)
        if record.terminal:
            return record.view(include_results=False)
        record.cancel_requested = True
        if record.coalesced_with is not None:
            # follower: leave the execution alone, just stop waiting
            self._coalescer.detach(record.key, record.id)
            if record.task is not None:
                record.task.cancel()
        elif record.state == QUEUED:
            self._queue.remove(lambda r: r.id == job_id)
            self._cancel_queued(record, "cancelled while queued")
        else:
            # running leader: the executor thread sees the event between
            # job completions and raises SweepCancelled
            record.cancel_event.set()
        return record.view(include_results=False)

    def _cancel_queued(self, record: JobRecord, message: str) -> None:
        err = ProtocolError(ERR_CANCELLED, message)
        self._finish(record, CANCELLED, error=err)
        self.metrics.inc("cancelled")
        self._coalescer.reject(record.key, err)

    def _get_record(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise ProtocolError(ERR_NOT_FOUND, f"no such job: {job_id}")
        return record

    # -- execution ---------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        from .queue import QueueClosedError

        while True:
            try:
                record = await self._queue.get()
            except QueueClosedError:
                return
            if record.state != QUEUED:
                continue
            await self._execute(record)

    def _make_cache(self) -> SweepCache | bool:
        if self._cache_conf is False:
            return False
        root = None if self._cache_conf is True else self._cache_conf
        return SweepCache(root, **self._cache_caps)

    def _cached_payload(self, submission: Submission) -> dict | None:
        """The result payload if the cache holds a record for every job
        of ``submission``, else ``None``.  A miss leaves the lookups
        uncounted: the execution looks the jobs up again."""
        if self._cache_conf is False:
            return None
        cache = self._make_cache()
        results = []
        for job, key in zip(submission.jobs, submission.job_keys, strict=True):
            _, result = cached_result(job, cache, key)
            if result is None:
                return None
            results.append(result)
        self.metrics.record_cache_traffic(cache)
        return _result_payload(results)

    def _checkpoint_spec(self, record: JobRecord) -> dict | None:
        """Server defaults merged under the submission's own spec."""
        spec: dict = {}
        if self._checkpoint_every is not None:
            spec["every"] = self._checkpoint_every
        if self._checkpoint_dir is not None:
            spec["dir"] = self._checkpoint_dir
        if record.submission.checkpoint:
            spec.update(record.submission.checkpoint)
        return spec or None

    def _run_sync(self, record: JobRecord) -> list:
        """Executor-thread body: the blocking runner call."""
        cache = self._make_cache()
        record.cache_used = cache if cache is not False else None
        return run_jobs(
            list(record.submission.jobs),
            workers=self._job_workers,
            cache=cache,
            cancel=record.cancel_event.is_set,
            checkpoint=self._checkpoint_spec(record),
        )

    async def _execute(self, record: JobRecord) -> None:
        record.state = RUNNING
        record.started_mono = time.monotonic()
        self._in_flight += 1
        self.metrics.inc("executions")
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(self._executor, self._run_sync, record)
        timeout = record.submission.timeout_s
        if timeout is None:
            timeout = self._default_timeout_s
        try:
            try:
                if timeout is not None:
                    results = await asyncio.wait_for(asyncio.shield(fut), timeout)
                else:
                    results = await fut
            except asyncio.TimeoutError:
                record.cancel_event.set()
                err = ProtocolError(
                    ERR_TIMEOUT, f"execution exceeded its {timeout:g}s budget"
                )
                self._finish(record, FAILED, error=err)
                self.metrics.inc("timeouts")
                self._coalescer.reject(record.key, err)
                # the executor thread unwinds at its next cancel poll;
                # swallow its eventual SweepCancelled quietly
                fut.add_done_callback(_reap)
                return
            except SweepCancelled as exc:
                err = ProtocolError(ERR_CANCELLED, str(exc))
                self._finish(record, CANCELLED, error=err)
                self.metrics.inc("cancelled")
                self._coalescer.reject(record.key, err)
                return
            except ReproError as exc:
                err = ProtocolError(ERR_EXECUTION, str(exc))
                self._finish(record, FAILED, error=err)
                self.metrics.inc("failed")
                self._coalescer.reject(record.key, err)
                return
            except Exception as exc:  # noqa: BLE001 - service must not die
                err = ProtocolError(ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
                self._finish(record, FAILED, error=err)
                self.metrics.inc("failed")
                self._coalescer.reject(record.key, err)
                return
            payload = _result_payload(results)
            self._finish(record, DONE, payload=payload)
            self.metrics.inc("completed")
            self._coalescer.resolve(record.key, payload)
        finally:
            self._in_flight -= 1
            self.metrics.record_cache_traffic(record.cache_used)

    async def _follow(self, record: JobRecord, future: asyncio.Future) -> None:
        """Follower body: mirror the leader's outcome onto this record."""
        try:
            payload = await asyncio.shield(future)
        except asyncio.CancelledError:
            if not record.terminal:
                self._finish(
                    record,
                    CANCELLED,
                    error=ProtocolError(ERR_CANCELLED, "cancelled by client"),
                )
                self.metrics.inc("cancelled")
            return
        except ProtocolError as exc:
            state = CANCELLED if exc.code == ERR_CANCELLED else FAILED
            self._finish(record, state, error=exc)
            self.metrics.inc("cancelled" if state == CANCELLED else "failed")
            return
        except BaseException as exc:  # pragma: no cover - defensive
            self._finish(
                record,
                FAILED,
                error=ProtocolError(ERR_INTERNAL, f"{type(exc).__name__}: {exc}"),
            )
            self.metrics.inc("failed")
            return
        self._finish(record, DONE, payload=payload)
        self.metrics.inc("completed")

    def _finish(
        self,
        record: JobRecord,
        state: str,
        *,
        payload: dict | None = None,
        error: ProtocolError | None = None,
    ) -> None:
        record.state = state
        record.finished_mono = time.monotonic()
        if error is not None:
            record.error = error.to_dict()["error"]
        if payload is not None:
            record.results_jsonl = payload["results_jsonl"]
            record.jobs_cached = payload["jobs_cached"]
            record.jobs_fresh = payload["jobs_fresh"]
        if state == DONE:
            self.metrics.observe_latency(record.elapsed_s())

    # -- views -------------------------------------------------------------------

    def job_view(self, job_id: str) -> dict:
        return self._get_record(job_id).view()

    def jobs_view(self) -> dict:
        return {
            "jobs": [r.view(include_results=False) for r in self._jobs.values()]
        }

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(
            queue_depth=len(self._queue),
            in_flight=self._in_flight,
            jobs_tracked=len(self._jobs),
            draining=self._draining,
        )

    # -- HTTP --------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection's requests in order (see the module
        docstring for when it closes)."""
        task = asyncio.current_task()
        self._conns[task] = writer
        task.add_done_callback(lambda done: self._conns.pop(done, None))
        try:
            while self._server.is_serving():
                self._idle.add(writer)
                try:
                    # a buffered (pipelined) request would not yield: let others
                    # in, only then, as a loop turn may wait for the interpreter lock
                    if reader._buffer:
                        await asyncio.sleep(0)
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    request = exc  # answered, then the connection closes
                finally:
                    self._idle.discard(writer)
                if request is None or writer.is_closing():
                    break  # the client closed, or stop() closed the idle connection
                if isinstance(request, ProtocolError):
                    status, payload, keep_alive = request.status, request.to_dict(), False
                else:
                    method, path, body, keep_alive = request
                    status, payload = self._route(method, path, body)
                keep_alive = keep_alive and not self._draining
                text = _ENCODE(payload).encode()
                writer.write(
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(text)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                    .encode() + text
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, BrokenPipeError):  # client gone, or aborted by stop()
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """The next request on a connection as ``(method, path, body,
        keep_alive)``, or ``None`` if the client closed the connection
        between requests; anything malformed raises ``bad_request``."""
        try:
            line = await reader.readline()
            if not line:
                return None
            request_line = line.decode("latin-1").strip()
            parts = request_line.split()
            if len(parts) != 3:
                raise ProtocolError(ERR_BAD_REQUEST, f"bad request line: {request_line!r}")
            method, path, version = parts
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if "transfer-encoding" in headers:
                raise ProtocolError(ERR_BAD_REQUEST, "chunked bodies are not supported")
            length = int(headers.get("content-length", 0) or 0)
            if length < 0 or length > _MAX_BODY_BYTES:
                raise ProtocolError(ERR_BAD_REQUEST, f"unreasonable body size {length}")
            raw = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ValueError, UnicodeDecodeError):
            raise ProtocolError(ERR_BAD_REQUEST, "malformed HTTP request") from None
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise ProtocolError(ERR_BAD_REQUEST, f"body is not JSON: {exc}") from None
        tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
        keep_alive = version == "HTTP/1.1" and "close" not in tokens
        return method.upper(), path, body, keep_alive

    def _route(self, method: str, path: str, body: Any) -> tuple[int, dict]:
        try:
            if path == "/v1/health" and method == "GET":
                return 200, {"status": "ok", "draining": self._draining}
            if path == "/v1/metrics" and method == "GET":
                return 200, self.metrics_snapshot()
            if path == "/v1/jobs" and method == "POST":
                return 201, self.submit(body)
            if path == "/v1/jobs" and method == "GET":
                return 200, self.jobs_view()
            if path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/"):]
                if method == "GET":
                    return 200, self.job_view(job_id)
                if method == "DELETE":
                    return 200, self.cancel(job_id)
            raise ProtocolError(ERR_NOT_FOUND, f"no route for {method} {path}")
        except ProtocolError as exc:
            return exc.status, exc.to_dict()
        except ReproError as exc:
            return 500, ProtocolError(ERR_INTERNAL, str(exc)).to_dict()


def _result_payload(results: list) -> dict:
    """A finished submission's results as the job record stores them."""
    return {
        "results_jsonl": write_jsonl(results),
        "jobs_cached": sum(1 for r in results if r.cached),
        "jobs_fresh": sum(1 for r in results if not r.cached),
    }


def _reap(fut) -> None:
    """Consume an abandoned executor future's outcome (post-timeout)."""
    if not fut.cancelled():
        fut.exception()


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    log=None,
    **service_kwargs,
) -> None:
    """Run a service until SIGINT/SIGTERM, then drain gracefully.

    The blocking entry point behind ``repro serve``.  ``service_kwargs``
    are forwarded to :class:`ExperimentService`.
    """
    asyncio.run(_serve_async(host, port, log=log, **service_kwargs))


async def _serve_async(host: str, port: int, *, log=None, **service_kwargs) -> None:
    import signal

    service = ExperimentService(**service_kwargs)
    bound = await service.start(host, port)
    if log is not None:
        log(f"repro service listening on http://{host}:{bound}")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await stop.wait()
    if log is not None:
        log("draining (waiting for queued and running jobs)...")
    await service.stop(drain=True)
