"""Content-addressed on-disk cache for sweep results.

A finished job — (workload, backend, backend options) executed under
one version of the code — is a pure function of its description, so
its record is cached under the sha-256 of that description.  A warm
rerun of a figure sweep then performs no input generation and no
algorithm execution at all; the determinism tests rely on cached and
fresh results being byte-identical.

Layout (under the cache root, default ``.repro-cache/``)::

    rows/<first two hex chars>/<full digest>.json

The cache is a key→text store.  :meth:`~SweepCache.put` writes a
record's canonical text in one write, atomically (temp file +
``os.replace``), so concurrent sweep workers and interrupted runs never
leave a partial record; :meth:`~SweepCache.get` returns the file
decoded as UTF-8, never parsed, and counts a missing, unreadable,
undecodable or empty file as a miss.  The sweep runner decides what a
record is: stored text that is not one is a miss there, recomputed and
overwritten.

A record's path is a plain string, ``f"{root}/rows/{key[:2]}/{key}.json"``,
built without pathlib on every access; ``get`` reads the file once and
refreshes its mtime through the open file.

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
    """Sha-keyed store of finished job records' canonical text.

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

    def get(self, key: str) -> str | None:
        """The text stored under ``key``, or ``None`` (counted as a miss)
        when the file is missing, unreadable, not UTF-8 or empty.

        A hit refreshes the file's mtime — the LRU recency clock —
        so records in active use survive eviction.
        """
        try:
            with open(self._file(key), "rb", buffering=0) as f:
                text = f.read().decode()
                try:
                    os.utime(f.fileno())
                except OSError:
                    pass  # read-only cache mounts still serve hits
        except (OSError, UnicodeDecodeError):
            text = ""
        if not text:
            self.misses += 1
            return None
        self.hits += 1
        return text

    def put(self, key: str, text: str) -> None:
        """Atomically store ``text`` under ``key``."""
        data = text.encode()
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
