"""Request coalescing: one execution for any number of identical submissions.

The disk cache already makes *sequential* duplicate work free; the
coalescer closes the remaining window — duplicates that arrive while
the first execution is still queued or running.  In-flight work is
indexed by :func:`~repro.service.protocol.submission_key` (the same
digests the cache files live under, so "equal key" ⇒ "byte-identical
results").  The first submission of a key becomes the **leader** and
goes through admission; later ones become **followers**: they consume
no queue slot and no execution, they just await the leader's future.

The leader's outcome — result payload or failure — is broadcast
through an :class:`asyncio.Future` per key.  Entries are removed when
resolved/rejected, so a submission arriving *after* completion is
answered from the disk cache at admission (or, with the cache
disabled, executes afresh) — coalescing and caching compose.

Event-loop-thread only, like the admission queue.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field as dataclass_field

__all__ = ["Coalescer", "InFlight"]


@dataclass
class InFlight:
    """One in-flight execution: its broadcast future and follower count."""

    key: str
    future: asyncio.Future
    leader_id: str
    followers: list[str] = dataclass_field(default_factory=list)


class Coalescer:
    """Index of in-flight executions by submission key."""

    def __init__(self) -> None:
        self._inflight: dict[str, InFlight] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def lookup(self, key: str) -> InFlight | None:
        return self._inflight.get(key)

    def lead(self, key: str, leader_id: str) -> InFlight:
        """Register ``leader_id`` as the executor for ``key``."""
        if key in self._inflight:
            raise KeyError(f"key already in flight: {key}")
        entry = InFlight(
            key=key,
            future=asyncio.get_running_loop().create_future(),
            leader_id=leader_id,
        )
        self._inflight[key] = entry
        return entry

    def attach(self, key: str, follower_id: str) -> InFlight | None:
        """Join ``follower_id`` to an in-flight execution, if any."""
        entry = self._inflight.get(key)
        if entry is not None:
            entry.followers.append(follower_id)
        return entry

    def resolve(self, key: str, payload: dict) -> int:
        """Broadcast success to every follower; returns how many there were."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            return 0
        if not entry.future.done():
            entry.future.set_result(payload)
        self._swallow_if_unawaited(entry)
        return len(entry.followers)

    def reject(self, key: str, exc: BaseException) -> int:
        """Broadcast failure (leader failed, timed out, or was cancelled)."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            return 0
        if not entry.future.done():
            entry.future.set_exception(exc)
        self._swallow_if_unawaited(entry)
        return len(entry.followers)

    def detach(self, key: str, follower_id: str) -> None:
        """A follower cancelled individually; the execution carries on."""
        entry = self._inflight.get(key)
        if entry is not None and follower_id in entry.followers:
            entry.followers.remove(follower_id)

    @staticmethod
    def _swallow_if_unawaited(entry: InFlight) -> None:
        # A leader with no followers still resolves its future; make sure
        # an exception set on a never-awaited future doesn't warn at GC.
        entry.future.add_done_callback(lambda f: f.exception())
