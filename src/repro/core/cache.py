"""Content-addressed on-disk cache for sweep results.

A finished job — (workload, backend, backend options) executed under
one version of the code — is a pure function of its description, so
its :class:`~repro.obs.RunSummary` is cached under the sha-256 of that
description.  A warm rerun of a figure sweep then performs no input
generation and no algorithm execution at all; the determinism tests
rely on cached and fresh results being byte-identical.

Layout (under the cache root, default ``.repro-cache/``)::

    rows/<first two hex chars>/<full digest>.json

Records are written atomically (temp file + ``os.replace``) so
concurrent sweep workers and interrupted runs never leave a partial
record; an unreadable or unparseable record is treated as a miss and
overwritten.  The store itself holds any JSON value under a key: the
sweep runner treats a stored value that is not a record (a JSON object
holding a ``summary`` object) as a miss as well, and overwrites it with
the recomputed record.

A record's path is a plain string, ``f"{root}/rows/{key[:2]}/{key}.json"``,
built without pathlib on every access.  :meth:`~SweepCache.get` reads
the file once in binary and decodes it with one ``json.loads``, then
refreshes its mtime through the open file; :meth:`~SweepCache.put`
writes the bytes of ``json.dumps(record, sort_keys=True,
separators=(",", ":"))`` in one write.

The key includes :func:`code_version` — a digest over every source
file of the ``repro`` package — so editing any simulator or kernel
invalidates the whole cache rather than serving stale timings.

The store is unbounded by default (a figure sweep is a few thousand
small records), but long-lived deployments — the experiment service,
shared CI caches — can cap it: construct with ``max_entries`` and/or
``max_bytes`` and every :meth:`~SweepCache.put` evicts
least-recently-used records (``get`` refreshes a record's mtime, the
recency clock) until the store fits.  :meth:`~SweepCache.prune` does
the same on demand — ``repro cache --prune`` from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from ..backends.base import _ENCODER, _as_plain

__all__ = ["SweepCache", "code_version", "default_cache_root", "evict_lru", "stat_files"]

_code_version_memo: str | None = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (memoized per process)."""
    global _code_version_memo
    if _code_version_memo is None:
        pkg_root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version_memo = h.hexdigest()
    return _code_version_memo


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the working directory."""
    env = os.environ.get("REPRO_CACHE_DIR")  # allow_nondet: cache location only, never results
    return Path(env) if env else Path(".repro-cache")


def stat_files(paths) -> list[tuple[Path, float, int]]:
    """``(path, mtime, size)`` of each of ``paths``, oldest first; files
    that vanish meanwhile (concurrently evicted) are skipped."""
    rows = []
    for path in paths:
        try:
            st = path.stat()
        except OSError:
            continue
        rows.append((path, st.st_mtime, st.st_size))
    rows.sort(key=lambda row: (row[1], row[0].name))
    return rows


def evict_lru(
    rows: list[tuple[Path, float, int]],
    max_entries: int | None = None,
    max_bytes: int | None = None,
) -> tuple[int, int]:
    """Delete the oldest of ``rows`` (as :func:`stat_files` returns them)
    until at most ``max_entries`` files of at most ``max_bytes`` bytes
    remain; ``None`` leaves a cap off.  Returns ``(evicted, freed)``.

    The one eviction loop behind both result records
    (:meth:`SweepCache.prune`) and checkpoint artifacts
    (:meth:`repro.sim.checkpoint.CheckpointStore.prune`).
    """
    if max_entries is None and max_bytes is None:
        return (0, 0)
    total = sum(size for _, _, size in rows)
    evicted = freed = 0
    for path, _, size in rows:
        over_count = max_entries is not None and len(rows) - evicted > max_entries
        over_bytes = max_bytes is not None and total > max_bytes
        if not over_count and not over_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue  # lost a race with another process — already gone
        evicted += 1
        freed += size
        total -= size
    return (evicted, freed)


class SweepCache:
    """Sha-keyed store of finished job records.

    Counters ``hits``, ``misses``, ``stores``, and ``evictions`` track
    one process's traffic; the sweep runner reports them on stderr so
    cached and fresh runs keep identical stdout.

    ``max_entries`` / ``max_bytes`` (``None`` = unbounded, the default)
    cap the on-disk store; when a :meth:`put` pushes past a cap, the
    least-recently-used records are evicted.  Enforcement stats the
    store (O(entries)), which is negligible against the cost of the
    simulations whose results it holds.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        for name, cap in (("max_entries", max_entries), ("max_bytes", max_bytes)):
            if cap is not None and cap < 0:
                from ..errors import ConfigurationError

                raise ConfigurationError(f"{name} must be >= 0, got {cap}")
        self.root = Path(root) if root is not None else default_cache_root()
        self._rows = str(self.root / "rows")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # -- keys -------------------------------------------------------------------

    @staticmethod
    def key_for(workload_canonical: dict, backend: str, backend_options: dict) -> str:
        """Cache key: workload description + backend + code version.

        The hash input is ``canonical_json`` of all three and the code
        version.  ``workload_canonical`` has the fields of
        :meth:`~repro.backends.base.Workload.canonical` (a str ``kind``,
        int ``p`` and ``seed``); its params and options, like
        ``backend_options``, are copied through ``_jsonable`` only when
        ``_plain`` finds a value that needs it, and the payload is then
        encoded without a second walk.

        The workload's ``checkpoint`` option is excluded: how a run was
        snapshotted (or resumed) never changes its result, so a resumed
        job lands on the same key as an uninterrupted one — that is what
        lets a resubmitted sweep reuse both cache entries and checkpoint
        artifacts of a cancelled run.
        """
        workload = dict(workload_canonical)
        options = dict(workload.get("options") or {})
        options.pop("checkpoint", None)
        workload["options"] = _as_plain(options)
        if "params" in workload:
            workload["params"] = _as_plain(workload["params"])
        payload = {
            "workload": workload,
            "backend": backend,
            "backend_options": _as_plain(backend_options),
            "code_version": code_version(),
        }
        return hashlib.sha256(_ENCODER.encode(payload).encode()).hexdigest()

    def _file(self, key: str) -> str:
        return f"{self._rows}/{key[:2]}/{key}.json"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    # -- access -----------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or ``None`` (counted as a miss).

        A hit refreshes the record's mtime — the LRU recency clock —
        so records in active use survive eviction.
        """
        try:
            with open(self._file(key), "rb", buffering=0) as f:
                record = json.loads(f.read())
                try:
                    os.utime(f.fileno())
                except OSError:
                    pass  # read-only cache mounts still serve hits
        except (OSError, ValueError):
            record = None
        if record is None:  # unreadable, or a stored null
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        """Atomically store ``record`` under ``key``."""
        data = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        directory = f"{self._rows}/{key[:2]}"
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with open(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, f"{directory}/{key}.json")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        if self.max_entries is not None or self.max_bytes is not None:
            self.prune()

    # -- bounds -----------------------------------------------------------------

    def entries(self) -> list[tuple[Path, float, int]]:
        """Every record as ``(path, mtime, size)``, oldest first."""
        return stat_files(self.root.glob("rows/*/*.json"))

    def size_bytes(self) -> int:
        """Total bytes of stored records."""
        return sum(size for _, _, size in self.entries())

    def prune(
        self, max_entries: int | None = None, max_bytes: int | None = None
    ) -> tuple[int, int]:
        """Evict least-recently-used records until the store fits.

        Caps default to the instance's; explicit arguments override
        (so ``repro cache --prune --max-entries 100`` works on a cache
        constructed without caps).  Returns ``(evicted, freed_bytes)``.
        """
        evicted, freed = evict_lru(
            self.entries(),
            self.max_entries if max_entries is None else max_entries,
            self.max_bytes if max_bytes is None else max_bytes,
        )
        self.evictions += evicted
        return (evicted, freed)

    # -- reporting --------------------------------------------------------------

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def stats_line(self) -> str:
        line = (
            f"cache: {self.hits}/{self.requests} hits"
            f" ({self.stores} stored) at {self.root}"
        )
        if self.evictions:
            line += f", {self.evictions} evicted"
        return line
