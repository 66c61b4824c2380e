"""Parallel, cached sweep runner.

A sweep is a list of :class:`Job`\\ s — declarative (workload, backend)
pairs — executed through one code path regardless of which execution
stack each backend wraps.  The runner:

* derives per-job seeds deterministically from the spec seed and the
  grid point (:func:`derive_seed`), so a result never depends on which
  worker ran it or in what order jobs finished;
* memoizes finished jobs in a content-addressed on-disk cache
  (:class:`~repro.core.cache.SweepCache`) keyed by (workload, backend,
  backend options, code version) — a warm rerun executes nothing;
* fans misses out across a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``workers > 1``) or runs them serially (``workers`` ``None``/0/1 —
  also the automatic fallback if the pool cannot start), collecting
  results back into input order so the output is byte-identical at any
  worker count.

Every record is encoded once, by ``canonical_json`` where the job ran;
the runner stores, parses and writes out that text, so a fresh result
and its cache replay compare equal bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..backends.base import CHECKPOINT_KEYS, Workload, canonical_json, checkpoint_spec
from ..errors import ConfigurationError, ReproError
from .cache import SweepCache

__all__ = [
    "Job",
    "JobResult",
    "SweepCancelled",
    "cached_result",
    "derive_seed",
    "run_jobs",
    "write_jsonl",
]

_SEED_SPACE = 1 << 62


class SweepCancelled(ReproError):
    """A sweep stopped early — Ctrl-C or a ``cancel`` hook fired.

    ``results`` holds one :class:`JobResult` per input job, in input
    order: jobs that finished before the cancellation carry their real
    records, unfinished ones are placeholders with
    ``cancelled=True`` and an empty record.  The worker pool has been
    shut down (queued work cancelled, running work reaped) before this
    is raised, so no worker processes outlive the sweep.
    """

    def __init__(self, results: list["JobResult"], message: str = "sweep cancelled"):
        super().__init__(message)
        self.results = results


class _CancelRequested(BaseException):
    """Internal: the ``cancel`` hook fired (BaseException so generic
    ``except Exception`` handlers in job code cannot swallow it)."""


def derive_seed(base_seed: int, *parts) -> int:
    """A per-job seed, a pure function of the spec seed and grid point.

    Hashing (rather than ``base_seed + i``) keeps seeds decorrelated
    and — crucially — independent of job order, worker count, and any
    other jobs in the sweep.
    """
    payload = canonical_json([int(base_seed), list(parts)])
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class Job:
    """One unit of a sweep: a workload on a named backend.

    ``tags`` carry presentation-only labels (figure series, sweep
    names) into the result rows; they are not part of the cache key.
    """

    workload: Workload
    backend: str
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    tags: Mapping[str, Any] = field(default_factory=dict)

    def payload(self) -> dict:
        """Picklable, hashable description of the work (tags excluded)."""
        return {
            "workload": self.workload.canonical(),
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
        }

    def key(self) -> str:
        """The job's cache key, :meth:`SweepCache.key_for` of its payload.

        The workload's params and options go in as it holds them, not
        through :meth:`Workload.canonical`'s ``_jsonable`` copy: the key
        hashes the same ``canonical_json`` bytes either way.
        """
        wl = self.workload
        return SweepCache.key_for(
            {"kind": wl.kind, "p": int(wl.p), "seed": int(wl.seed),
             "params": dict(wl.params), "options": wl.options},
            self.backend,
            dict(self.backend_options),
        )


@dataclass
class JobResult:
    """A finished job: its canonical record text, that text parsed,
    and provenance.

    ``cancelled`` marks a placeholder for a job whose execution never
    finished (see :class:`SweepCancelled`); its ``record`` is empty and
    the summary views below will raise ``KeyError``.
    """

    job: Job
    record: dict
    text: str = ""
    cached: bool = False
    key: str = ""
    cancelled: bool = False

    # -- convenience views ------------------------------------------------------

    @property
    def summary(self) -> dict:
        return self.record["summary"]

    @property
    def seconds(self) -> float:
        return self.summary["cycles"] / self.summary["clock_hz"]

    @property
    def cycles(self) -> float:
        return self.summary["cycles"]

    @property
    def utilization(self) -> float:
        return self.summary["utilization"]

    @property
    def detail(self) -> dict:
        return self.summary.get("detail", {})

    @property
    def stats(self) -> dict:
        return self.detail.get("stats", {})

    def run_summary(self):
        """The record rehydrated as a :class:`repro.obs.RunSummary`."""
        from ..obs.summary import RunSummary

        return RunSummary.from_dict(self.summary)

    def jsonl(self) -> str:
        """The record as one JSON line: ``canonical_json``'s bytes, the
        stored and hashed form, which must never change."""
        return self.text


# The serial loop's cancel hook, handed to _execute_payload out of band
# (thread-local: the service runs several serial run_jobs concurrently in
# executor threads).  Keeping the _execute_payload signature at exactly
# one argument preserves the monkeypatch surface the test suites rely on,
# and fakes that delegate to the real function inherit the hook.
_serial_state = threading.local()


def _execute_payload(payload: dict) -> str:
    """Run one job description and return its record's canonical text;
    top-level so worker processes can pickle it.

    The serial loop's cancel hook (serial execution only — callables
    don't cross the process pool) is handed to the backend as the
    checkpoint spec's ``_stop`` hook: the engine polls it at snapshot
    boundaries and pauses via :class:`~repro.errors.RunPaused` with the
    final state persisted, which surfaces here as a cancellation.

    The recorded workload always has the ``checkpoint`` option stripped,
    so cached records from checkpointed, resumed, and plain runs are
    byte-identical (their cache key already coincides — see
    :meth:`~repro.core.cache.SweepCache.key_for`).
    """
    from .. import backends  # noqa: F401  (registers the built-in backends)
    from ..backends import create
    from ..backends.base import Workload as _W
    from ..errors import RunPaused

    wl_dict = payload["workload"]
    exec_wl = wl_dict
    stop = getattr(_serial_state, "stop", None)
    spec = (wl_dict.get("options") or {}).get("checkpoint")
    if stop is not None and spec and isinstance(spec, Mapping):
        options = dict(wl_dict["options"])
        options["checkpoint"] = dict(spec, _stop=stop)
        exec_wl = dict(wl_dict, options=options)
    backend = create(payload["backend"], **payload["backend_options"])
    workload = _W.from_dict(exec_wl)
    try:
        summary = backend.run(workload)
    except RunPaused:
        # graceful drain: the in-flight state is already persisted
        raise _CancelRequested() from None
    record_wl = dict(wl_dict)
    record_opts = dict(record_wl.get("options") or {})
    record_opts.pop("checkpoint", None)
    record_wl["options"] = record_opts
    record = {
        "workload": record_wl,
        "backend": payload["backend"],
        "backend_options": payload["backend_options"],
        "summary": summary.to_dict(),
    }
    return canonical_json(record)


def cached_result(
    job: Job, cache: SweepCache, key: str | None = None
) -> tuple[str, JobResult | None]:
    """``job``'s cache key and its stored result, or ``None`` on a miss.

    The one cache read of the record path: :func:`run_jobs` and the
    service's admission both call it.  ``key`` is ``job.key()`` when the
    caller has already hashed it (the service does so once per job when
    it parses a submission).  Stored text that is not a record (not
    JSON, or not a JSON object holding a ``summary`` object) is counted
    as a miss; the runner recomputes and overwrites it.
    """
    if key is None:
        key = job.key()
    text = cache.get(key)
    if text is None:
        return key, None
    try:
        record = json.loads(text)
    except ValueError:
        record = None
    if not (isinstance(record, dict) and isinstance(record.get("summary"), dict)):
        cache.hits -= 1
        cache.misses += 1
        return key, None
    return key, JobResult(job=job, record=record, text=text, cached=True, key=key)


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int | None = None,
    cache: SweepCache | None | bool = None,
    progress: Callable[[int, int, Job, bool], None] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: Mapping[str, Any] | None = None,
) -> list[JobResult]:
    """Execute ``jobs``, returning results in input order.

    Parameters
    ----------
    jobs:
        The sweep, in the order results should come back.
    workers:
        ``None``/0/1 → serial; ``N > 1`` → a process pool of N workers.
        Output is byte-identical either way.
    cache:
        A :class:`SweepCache`, ``True`` (the default cache root),
        ``False`` (disable), or ``None`` (default: enabled).
    progress:
        Optional callback ``(done, total, job, was_cached)``.
    cancel:
        Optional hook polled between job completions (e.g.
        ``threading.Event().is_set``).  When it returns true — or a
        ``KeyboardInterrupt`` arrives mid-sweep — the worker pool is
        shut down cleanly (queued futures cancelled, nothing leaked)
        and :class:`SweepCancelled` is raised carrying the partial
        results, with unfinished jobs marked ``cancelled``.
    checkpoint:
        Optional checkpoint spec ``{"every": N, "dir": path, "resume":
        ref}`` (checked by :func:`~repro.backends.base.checkpoint_spec`,
        which raises :class:`~repro.errors.ConfigurationError`) injected
        into each job's workload as the ``checkpoint``
        option (keyed by the job's cache key, so a resubmitted sweep
        resumes each job's newest artifact).  ``dir`` defaults to
        ``checkpoints/`` under the cache's root (``$REPRO_CHECKPOINT_DIR``
        wins), where ``repro cache`` lists and prunes the artifacts.
        Cache keys and cached records are unaffected — a resumed job is
        byte-identical to an uninterrupted one.  With serial execution the ``cancel`` hook is
        additionally polled *inside* runs at snapshot boundaries, so a
        drain checkpoints the in-flight job instead of losing it.
    """
    jobs = list(jobs)
    if cache is True or cache is None:
        cache = SweepCache()
    elif cache is False:
        cache = None
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if checkpoint is not None:
        from ..sim.checkpoint import default_checkpoint_root

        checkpoint = checkpoint_spec(checkpoint, CHECKPOINT_KEYS | {"key"})
        ckpt_dir = str(default_checkpoint_root(cache.root if cache is not None else None))

    # each job's key is hashed once, in the lookup loop below, and reused
    # for its store and its checkpoint spec
    keys: list[str] = []

    def _payload(i: int) -> dict:
        payload = jobs[i].payload()
        if checkpoint is not None:
            spec = dict(checkpoint)
            spec.setdefault("key", keys[i])
            spec.setdefault("dir", ckpt_dir)
            options = dict(payload["workload"]["options"])
            options["checkpoint"] = spec
            payload["workload"] = dict(payload["workload"], options=options)
        return payload

    results: list[JobResult | None] = [None] * len(jobs)
    pending: list[int] = []
    done = 0
    for i, job in enumerate(jobs):
        if cache is not None:
            key, result = cached_result(job, cache)
        else:
            key, result = job.key() if checkpoint is not None else "", None
        keys.append(key)
        if result is not None:
            results[i] = result
            done += 1
            if progress is not None:
                progress(done, len(jobs), job, True)
        else:
            pending.append(i)

    def _finish(i: int, text: str) -> None:
        nonlocal done
        job = jobs[i]
        key = keys[i] if cache is not None else ""
        if cache is not None:
            cache.put(key, text)
        results[i] = JobResult(job=job, record=json.loads(text), text=text, key=key)
        done += 1
        if progress is not None:
            progress(done, len(jobs), job, False)

    def _run_serial() -> None:
        _serial_state.stop = cancel
        try:
            for i in pending:
                if results[i] is not None:
                    continue
                if cancel is not None and cancel():
                    raise _CancelRequested()
                _finish(i, _execute_payload(_payload(i)))
        finally:
            _serial_state.stop = None

    try:
        if pending:
            if workers is not None and workers > 1:
                try:
                    _run_pool(_payload, pending, workers, _finish, cancel)
                except (OSError, PermissionError):
                    # sandboxes without process spawning: fall back to serial
                    _run_serial()
            else:
                _run_serial()
    except (KeyboardInterrupt, _CancelRequested) as exc:
        partial = [
            r if r is not None else JobResult(job=job, record={}, cancelled=True)
            for job, r in zip(jobs, results, strict=False)
        ]
        reason = "interrupted" if isinstance(exc, KeyboardInterrupt) else "cancelled"
        raise SweepCancelled(
            partial,
            f"sweep {reason} after {done}/{len(jobs)} job(s)",
        ) from None

    return [r for r in results if r is not None]


def _run_pool(payload, pending, workers, finish, cancel=None) -> None:
    """Fan pending jobs across a process pool, honouring cancellation.

    On ``KeyboardInterrupt`` or a fired ``cancel`` hook the pool is
    shut down with ``cancel_futures=True`` — queued work never starts,
    in-flight work is awaited so no orphan worker processes remain —
    and the exception propagates to :func:`run_jobs`.  The ``stop``
    hook never crosses the pool boundary (callables don't pickle);
    in-flight jobs keep their periodic snapshots, so a cancelled
    parallel sweep still resumes from each job's newest artifact.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(_execute_payload, payload(i)): i for i in pending}
        remaining = set(futures)
        # Poll with a short timeout only when a cancel hook exists, so
        # cancellation stays responsive without busy-waiting otherwise.
        poll = 0.05 if cancel is not None else None
        while remaining:
            if cancel is not None and cancel():
                raise _CancelRequested()
            finished, remaining = wait(
                remaining, timeout=poll, return_when=FIRST_COMPLETED
            )
            for fut in finished:
                finish(futures[fut], fut.result())
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def write_jsonl(results: Iterable[JobResult], stream=None) -> str:
    """Serialize results as JSON Lines (sorted keys, stable order).

    Writes to ``stream`` when given; always returns the text.
    """
    text = "".join(r.jsonl() + "\n" for r in results)
    if stream is not None:
        stream.write(text)
    return text
