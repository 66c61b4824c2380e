"""Linked-list workload generators.

The paper evaluates list ranking on two list classes:

* **Ordered** — element *i* of the array is the rank-*i* node, so the
  successor of position *i* is position *i + 1*.  Traversal is a
  unit-stride sweep: the best case for a cache machine.
* **Random** — successive list elements are placed at random array
  positions, so traversal is a uniformly random pointer chase: the
  worst case for a cache machine.

Lists are represented as a single int64 *successor array* ``nxt`` of
length *n*: ``nxt[i]`` is the array index of node *i*'s successor and
the tail stores :data:`TAIL`.  The head is not stored; it is recoverable
arithmetically (every node except the head appears exactly once as a
successor):

.. math::  \\mathrm{head} = \\tfrac{n(n-1)}{2} - \\sum_i nxt[i] - |\\{tail\\}|·(-1)

which is exactly the trick step 1 of the Helman–JáJá algorithm uses
(:func:`head_of`).

:func:`clustered_list` interpolates between the two paper classes for
the locality ablation: ranks are permuted only within blocks of a given
size, so cache-line reuse degrades smoothly as the block size grows.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "TAIL",
    "ordered_list",
    "random_list",
    "clustered_list",
    "list_from_order",
    "head_of",
    "check_successors",
    "validate_list",
    "true_ranks",
]

#: Sentinel successor of the tail node.
TAIL = -1


def list_from_order(order: np.ndarray) -> np.ndarray:
    """Build a successor array from a rank order.

    Parameters
    ----------
    order:
        ``order[r]`` is the array position of the rank-``r`` node (a
        permutation of ``0..n-1``).

    Returns
    -------
    numpy.ndarray
        Successor array ``nxt`` with ``nxt[order[r]] = order[r+1]`` and
        ``nxt[order[-1]] = TAIL``.
    """
    order = np.asarray(order, dtype=np.int64)
    n = len(order)
    nxt = np.full(n, TAIL, dtype=np.int64)
    if n == 0:
        return nxt
    nxt[order[:-1]] = order[1:]
    return nxt


def ordered_list(n: int) -> np.ndarray:
    """The paper's *Ordered* class: node at position ``i`` has rank ``i``."""
    if n < 0:
        raise WorkloadError("list length must be non-negative")
    return list_from_order(np.arange(n, dtype=np.int64))


def random_list(n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """The paper's *Random* class: ranks assigned to random array positions."""
    if n < 0:
        raise WorkloadError("list length must be non-negative")
    rng = np.random.default_rng(rng)
    return list_from_order(rng.permutation(n).astype(np.int64))


def clustered_list(
    n: int, block: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """A list random within blocks of ``block`` positions, ordered across blocks.

    ``block = 1`` reproduces :func:`ordered_list`; ``block >= n``
    reproduces :func:`random_list`.  Used by the locality ablation to
    sweep the working-set-per-cache-line spectrum.
    """
    if block < 1:
        raise WorkloadError("block must be >= 1")
    rng = np.random.default_rng(rng)
    order = np.arange(n, dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        order[start:stop] = start + rng.permutation(stop - start)
    return list_from_order(order)


def head_of(nxt: np.ndarray) -> int:
    """Recover the head index arithmetically (Helman–JáJá step 1).

    Every node except the head appears exactly once among the successor
    values, and the tail contributes :data:`TAIL` = −1; hence
    ``head = n(n−1)/2 − sum(nxt) − 1``.
    """
    n = len(nxt)
    if n == 0:
        raise WorkloadError("empty list has no head")
    total = int(np.sum(nxt, dtype=np.int64))
    head = n * (n - 1) // 2 - total - 1
    if not 0 <= head < n:
        raise WorkloadError(f"successor array is not a valid list (computed head {head})")
    return head


def check_successors(nxt: np.ndarray) -> None:
    """Check that ``nxt`` is an integral array whose every entry lies in
    ``[0, n)`` or equals :data:`TAIL`.

    The cheap, vectorized part of :func:`validate_list`; the thread
    programs in :mod:`repro.lists.programs` call it once so that every
    address they build from a successor is in bounds.  Raises
    :class:`~repro.errors.WorkloadError`.
    """
    nxt = np.asarray(nxt)
    if nxt.dtype.kind not in "iu":
        raise WorkloadError("successor array must be integral")
    if not np.all(((nxt >= 0) & (nxt < len(nxt))) | (nxt == TAIL)):
        raise WorkloadError("successor indices out of range")


def validate_list(nxt: np.ndarray) -> int:
    """Check that ``nxt`` encodes one simple chain covering all nodes.

    Returns the head index.  Raises :class:`~repro.errors.WorkloadError`
    on cycles, forks, out-of-range successors, or multiple chains.
    """
    nxt = np.asarray(nxt)
    n = len(nxt)
    if n == 0:
        raise WorkloadError("empty list")
    check_successors(nxt)
    tails = nxt == TAIL
    if tails.sum() != 1:
        raise WorkloadError(f"list must have exactly one tail, found {int(tails.sum())}")
    succ = nxt[nxt >= 0]
    if len(np.unique(succ)) != len(succ):
        raise WorkloadError("a node is the successor of two different nodes")
    head = head_of(nxt)
    # walk the chain; it must visit each node exactly once
    seen = np.zeros(n, dtype=bool)
    j = head
    for _ in range(n):
        if seen[j]:
            raise WorkloadError("cycle detected in successor array")
        seen[j] = True
        j = int(nxt[j])
        if j == TAIL:
            break
    if not seen.all():
        raise WorkloadError("successor array encodes more than one chain")
    return head


def true_ranks(nxt: np.ndarray) -> np.ndarray:
    """Ground-truth 0-based ranks (distance from head) by direct traversal.

    O(n) single pointer chase in Python — the reference the parallel
    algorithms are validated against.
    """
    n = len(nxt)
    ranks = np.full(n, -1, dtype=np.int64)
    j = head_of(nxt)
    nxt_list = nxt.tolist()  # plain ints make the chase ~10x faster
    r = 0
    while j != TAIL:
        ranks[j] = r
        r += 1
        j = nxt_list[j]
    if r != n:
        raise WorkloadError(f"traversal visited {r} of {n} nodes; list is malformed")
    return ranks
