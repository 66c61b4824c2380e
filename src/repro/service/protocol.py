"""Wire protocol for the experiment service: submissions, states, errors.

Everything the HTTP layer accepts or emits is defined here, away from
sockets, so the admission queue, coalescer, and tests can speak the
protocol without a running server.

A **submission** is the body of ``POST /v1/jobs`` in exactly one of
three forms:

``{"workload": {...}, "backend": "smp-model", "backend_options": {...}}``
    One runner job.

``{"jobs": [{"workload": ..., "backend": ...}, ...]}``
    An explicit batch, executed as one unit.

``{"spec": "fig1-tiny"}``
    A named sweep from :func:`repro.workloads.jobs_for`.

plus optional knobs: ``priority`` (higher runs sooner), ``timeout_s``
(per-submission wall-clock budget), ``label`` (free-form, echoed back),
``checkpoint`` (``{"every": N, "dir": path, "resume": ref}`` — enable
periodic snapshots / resume for the execution), and ``resume_from``
(shorthand for ``checkpoint.resume``: an artifact path or content id).

Each submission coalesces on :func:`submission_key` — the sha-256 over
the same per-job digests the on-disk result cache uses (workload +
backend + backend options + code version).  Two submissions with equal
keys describe byte-identical work, so the service runs it once.  A
``checkpoint`` spec folds into the key *only when present*: plain
submissions keep their historical keys, and a resume submission never
coalesces with (or is served by) a plain one.

Errors cross the wire as ``{"error": {"code": ..., "message": ...}}``
with a matching HTTP status; the codes are module constants so tests
and clients never string-match messages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..backends.base import Workload, canonical_json, checkpoint_spec
from ..core.runner import Job
from ..errors import ConfigurationError, ReproError

__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_NOT_FOUND",
    "ERR_QUEUE_FULL",
    "ERR_TIMEOUT",
    "ERR_CANCELLED",
    "ERR_SHUTTING_DOWN",
    "ERR_EXECUTION",
    "ERR_INTERNAL",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "ProtocolError",
    "Submission",
    "parse_submission",
    "submission_key",
]

# -- error codes (stable API: clients switch on these) --------------------------

ERR_BAD_REQUEST = "bad_request"
ERR_NOT_FOUND = "not_found"
ERR_QUEUE_FULL = "queue_full"
ERR_TIMEOUT = "timeout"
ERR_CANCELLED = "cancelled"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_EXECUTION = "execution_error"
ERR_INTERNAL = "internal_error"

_DEFAULT_STATUS = {
    ERR_BAD_REQUEST: 400,
    ERR_NOT_FOUND: 404,
    ERR_QUEUE_FULL: 429,
    ERR_TIMEOUT: 504,
    ERR_CANCELLED: 409,
    ERR_SHUTTING_DOWN: 503,
    ERR_EXECUTION: 500,
    ERR_INTERNAL: 500,
}

# -- job states -----------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class ProtocolError(ReproError):
    """A structured service error: machine-readable code + HTTP status."""

    def __init__(self, code: str, message: str, status: int | None = None):
        super().__init__(message)
        self.code = code
        self.status = status if status is not None else _DEFAULT_STATUS.get(code, 500)

    def to_dict(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


@dataclass(frozen=True)
class Submission:
    """A parsed, validated ``POST /v1/jobs`` body."""

    jobs: tuple[Job, ...]
    priority: int = 0
    timeout_s: float | None = None
    label: str = ""
    spec: str | None = None
    #: Checkpoint spec for the execution (``{"every", "dir", "resume"}``),
    #: or None — the server may still apply its own defaults.
    checkpoint: Mapping[str, Any] | None = None
    #: Each job's cache key (:meth:`~repro.core.runner.Job.key`), hashed
    #: once when the submission is built; the admission lookup reads them.
    job_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: :func:`submission_key` of the jobs and the checkpoint spec.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        job_keys = tuple(job.key() for job in self.jobs)
        object.__setattr__(self, "job_keys", job_keys)
        object.__setattr__(self, "key", _digest(job_keys, self.checkpoint))

    def describe(self) -> dict:
        """The submission echo included in every job view."""
        out: dict[str, Any] = {"jobs": len(self.jobs), "priority": self.priority}
        if self.spec is not None:
            out["spec"] = self.spec
        else:
            out["backends"] = sorted({j.backend for j in self.jobs})
            out["kinds"] = sorted({j.workload.kind for j in self.jobs})
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        if self.label:
            out["label"] = self.label
        if self.checkpoint is not None:
            out["checkpoint"] = dict(self.checkpoint)
        return out


def submission_key(
    jobs: tuple[Job, ...] | list[Job],
    checkpoint: Mapping[str, Any] | None = None,
) -> str:
    """Digest identifying the submission's work, cache-compatibly.

    Built from each job's :meth:`~repro.core.runner.Job.key` — the
    exact digest the disk cache files live under — so "same key" means
    "same cache rows", which is what makes coalescing safe: attaching
    a duplicate submission to an in-flight execution returns the very
    bytes a fresh run would have produced.

    A ``checkpoint`` spec is folded in only when present, so plain
    submissions keep their historical keys while checkpointed or
    resuming ones stand alone.
    """
    return _digest([job.key() for job in jobs], checkpoint)


def _digest(job_keys: Sequence[str], checkpoint: Mapping[str, Any] | None) -> str:
    """:func:`submission_key` from the jobs' already computed keys."""
    payload: Any = list(job_keys)
    if checkpoint:
        payload = {"jobs": payload, "checkpoint": dict(checkpoint)}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _parse_one_job(body: Mapping[str, Any], where: str) -> Job:
    workload_dict = body.get("workload")
    if not isinstance(workload_dict, Mapping):
        raise ProtocolError(ERR_BAD_REQUEST, f"{where}: 'workload' must be an object")
    if "kind" not in workload_dict:
        raise ProtocolError(ERR_BAD_REQUEST, f"{where}: workload needs a 'kind'")
    backend = body.get("backend")
    if not isinstance(backend, str) or not backend:
        raise ProtocolError(ERR_BAD_REQUEST, f"{where}: 'backend' must be a string")
    options = body.get("backend_options", {})
    if not isinstance(options, Mapping):
        raise ProtocolError(
            ERR_BAD_REQUEST, f"{where}: 'backend_options' must be an object"
        )
    try:
        workload = Workload.from_dict(workload_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(ERR_BAD_REQUEST, f"{where}: bad workload: {exc}") from None
    return Job(workload, backend, backend_options=dict(options))


def parse_submission(body: Any) -> Submission:
    """Validate a ``POST /v1/jobs`` body into a :class:`Submission`.

    Raises :class:`ProtocolError` (``bad_request``) on anything
    malformed — unknown sweep names, missing fields, wrong types —
    with a message naming the offending field.
    """
    if not isinstance(body, Mapping):
        raise ProtocolError(ERR_BAD_REQUEST, "body must be a JSON object")
    forms = [k for k in ("workload", "jobs", "spec") if k in body]
    if len(forms) != 1:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "body must contain exactly one of 'workload', 'jobs', or 'spec'"
            f" (got {forms or 'none'})",
        )

    spec = None
    if "spec" in body:
        spec = body["spec"]
        if not isinstance(spec, str):
            raise ProtocolError(ERR_BAD_REQUEST, "'spec' must be a string")
        from ..workloads import jobs_for

        try:
            jobs = tuple(jobs_for(spec))
        except ReproError as exc:
            raise ProtocolError(ERR_BAD_REQUEST, str(exc)) from None
    elif "jobs" in body:
        raw = body["jobs"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ProtocolError(ERR_BAD_REQUEST, "'jobs' must be a non-empty array")
        jobs = tuple(
            _parse_one_job(item, f"jobs[{i}]") for i, item in enumerate(raw)
        )
    else:
        jobs = (_parse_one_job(body, "job"),)

    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(ERR_BAD_REQUEST, "'priority' must be an integer")

    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) or isinstance(timeout_s, bool):
            raise ProtocolError(ERR_BAD_REQUEST, "'timeout_s' must be a number")
        if timeout_s <= 0:
            raise ProtocolError(ERR_BAD_REQUEST, "'timeout_s' must be > 0")
        timeout_s = float(timeout_s)

    label = body.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError(ERR_BAD_REQUEST, "'label' must be a string")

    checkpoint = _parse_checkpoint(body)
    if checkpoint and checkpoint.get("resume") and len(jobs) != 1:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "an explicit resume artifact requires a single-job submission"
            " (batch jobs auto-resume from their own newest checkpoints)",
        )

    return Submission(
        jobs=jobs,
        priority=priority,
        timeout_s=timeout_s,
        label=label,
        spec=spec,
        checkpoint=checkpoint,
    )


def _parse_checkpoint(body: Mapping[str, Any]) -> dict | None:
    """Validate the optional ``checkpoint`` object and the
    ``resume_from`` shorthand into one spec dict (or None)."""
    spec = body.get("checkpoint")
    out: dict[str, Any] = {}
    if spec is not None:
        try:
            spec = checkpoint_spec(spec)
        except ConfigurationError as exc:
            raise ProtocolError(ERR_BAD_REQUEST, str(exc)) from None
        out = {k: v for k, v in spec.items() if k != "fresh" and v is not None}
        if "fresh" in spec:
            out["fresh"] = bool(spec["fresh"])
    resume_from = body.get("resume_from")
    if resume_from is not None:
        if not isinstance(resume_from, str) or not resume_from:
            raise ProtocolError(
                ERR_BAD_REQUEST, "'resume_from' must be a non-empty string"
            )
        out["resume"] = resume_from
    return out or None
