"""Bounded priority admission queue — the service's backpressure valve.

The paper's architectural argument is about keeping many outstanding
requests in flight *without* unbounded buffering; the service applies
the same discipline at the request level.  Admission is strict: when
``len(queue) == limit`` a :meth:`~AdmissionQueue.put_nowait` raises
:class:`QueueFullError` immediately — the HTTP layer turns that into a
structured ``queue_full`` rejection (429) instead of letting latency
grow without bound.  Duplicate submissions never consume a slot: the
coalescer intercepts them before admission, and a submission the cache
already answers in full never reaches the queue.

Ordering is by descending ``priority``, FIFO within a priority (a
monotonic sequence number breaks ties), implemented as a heap.

Single-threaded by design: every method must be called from the event
loop thread.  ``get`` is the only coroutine; dispatcher tasks block on
it and wake via an :class:`asyncio.Event` when work or closure
arrives.  :meth:`close` makes ``get`` raise :class:`QueueClosedError`
once the backlog drains, which is how graceful shutdown tells the
dispatchers to exit.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable

from ..errors import ReproError

__all__ = ["AdmissionQueue", "QueueFullError", "QueueClosedError"]


class QueueFullError(ReproError):
    """Admission refused: the queue is at its bound."""


class QueueClosedError(ReproError):
    """The queue is closed (and, for ``get``, fully drained)."""


class AdmissionQueue:
    """Bounded max-priority queue with explicit rejection on overflow."""

    def __init__(self, limit: int):
        if limit < 1:
            from ..errors import ConfigurationError

            raise ConfigurationError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self._wakeup = asyncio.Event()
        self._closed = False

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def put_nowait(self, item: Any, priority: int = 0) -> None:
        """Admit ``item`` or raise — never blocks, never buffers extra.

        Raises :class:`QueueFullError` at the bound and
        :class:`QueueClosedError` after :meth:`close`.
        """
        if self._closed:
            raise QueueClosedError("queue is closed to new work")
        if len(self._heap) >= self.limit:
            raise QueueFullError(
                f"admission queue is full ({len(self._heap)}/{self.limit})"
            )
        heapq.heappush(self._heap, (-priority, self._seq, item))
        self._seq += 1
        self._wakeup.set()

    async def get(self) -> Any:
        """The highest-priority item, waiting for one if necessary.

        Raises :class:`QueueClosedError` when the queue is closed and
        empty — the dispatcher-exit signal.
        """
        while True:
            if self._heap:
                item = heapq.heappop(self._heap)[2]
                if not self._heap and not self._closed:
                    self._wakeup.clear()
                return item
            if self._closed:
                raise QueueClosedError("queue closed and drained")
            self._wakeup.clear()
            await self._wakeup.wait()

    def remove(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Withdraw every queued item matching ``predicate``.

        Used to cancel jobs that are still waiting for a dispatcher;
        returns the removed items (possibly empty).
        """
        kept, removed = [], []
        for entry in self._heap:
            (removed if predicate(entry[2]) else kept).append(entry)
        if removed:
            self._heap = kept
            heapq.heapify(self._heap)
        return [entry[2] for entry in removed]

    def close(self) -> None:
        """Refuse new work; waiters drain the backlog then get
        :class:`QueueClosedError`."""
        self._closed = True
        self._wakeup.set()
