"""Synchronous stdlib client for the experiment service.

Thin wrapper over :mod:`http.client` used by ``repro submit``, the CI
smoke job, and the test suite.  Every method returns the decoded JSON
body; error responses (HTTP status >= 400, carrying an
``{"error": {...}}`` payload) raise :class:`ServiceError` with the
structured code, so callers switch on ``exc.code`` — e.g.
``ERR_QUEUE_FULL`` — instead of parsing messages.  A *job view* that
merely records a failure (a cancelled or failed job fetched with a
200) is returned as data, not raised.

Each calling thread keeps one persistent HTTP/1.1 connection, opened on
its first request and reopened after the server closes it.  A request
on a reused connection that fails before any response byte comes back
(the server closed the connection while it was idle) is sent once more
on a new connection; every other failure is a ``transport`` error.
:meth:`ServiceClient.close` (or leaving a ``with`` block) closes the
connections.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any

from ..errors import ReproError
from .protocol import TERMINAL_STATES

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ReproError):
    """A structured error returned by the service (or a transport failure)."""

    def __init__(self, code: str, message: str, status: int = 0):
        super().__init__(message)
        self.code = code
        self.status = status


class ServiceClient:
    """Talk to a running :class:`~repro.service.ExperimentService`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787, timeout: float = 30.0
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection (a later request reopens it)."""
        with self._lock:
            for conn in self._conns:
                conn.close()

    # -- transport ---------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._conns.append(conn)
        return conn

    def _request(self, method: str, path: str, body: Any = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                # http.client.RemoteDisconnected is a ConnectionResetError:
                # no response byte came back
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServiceError(
                "transport",
                f"{method} http://{self.host}:{self.port}{path} failed: {exc}",
            ) from None
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError as exc:
            raise ServiceError(
                "transport", f"non-JSON response ({response.status}): {exc}"
            ) from None
        if response.status >= 400:
            err = decoded.get("error") if isinstance(decoded, dict) else None
            err = err if isinstance(err, dict) else {}
            raise ServiceError(
                err.get("code", "unknown"),
                err.get("message", f"HTTP {response.status}"),
                status=response.status,
            )
        return decoded

    # -- API ---------------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def submit(self, body: dict) -> dict:
        """POST a submission body (see :mod:`repro.service.protocol`)."""
        return self._request("POST", "/v1/jobs", body)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> dict:
        return self._request("GET", "/v1/jobs")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0, poll_s: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state; returns its view.

        Raises :class:`ServiceError` (code ``wait_timeout``) if the job
        is still live after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in TERMINAL_STATES:
                return view
            if time.monotonic() >= deadline:
                raise ServiceError(
                    "wait_timeout",
                    f"job {job_id} still {view['state']} after {timeout:g}s",
                )
            time.sleep(poll_s)

    def wait_until_up(self, timeout: float = 10.0, poll_s: float = 0.1) -> dict:
        """Block until ``GET /v1/health`` answers (server start-up race)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll_s)
