"""Shared sublist-traversal engine for the parallel list-ranking algorithms.

Both the Helman–JáJá SMP algorithm (step 3) and the MTA walk algorithm
(Alg. 1, step 2) do the same thing: starting from a set of *marked*
nodes that includes the true head, walk every sublist to its next
marked node, computing each node's within-sublist prefix and recording
per-walk summaries.  This module implements that traversal once, with
two host strategies that give identical results.  The number of walks
picks one (:data:`LOCKSTEP_MIN_WALKS`):

* few walks — Helman–JáJá's s = 8p long sublists, or a small MTA
  instance — are each chased in plain Python, O(n) list indexing;
* many walks — the MTA model's min(n/10, 400p) ~10-node walks — advance
  in a round-synchronous vectorized sweep, one round of NumPy
  operations per node of the longest sublist.

The traversal also *measures* the memory behaviour the machine models
need: for every walk, how many of its successor-reads landed at the
next array position (``addr + 1``).  On an Ordered list with
block-chosen splitters this is nearly all of them; on a Random list,
almost none — the single number behind the paper's 3–4× SMP gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .generate import TAIL
from .prefix import PrefixOp

__all__ = ["Traversal", "traverse_sublists", "walk_traces", "LOCKSTEP_MIN_WALKS"]

#: Walk count from which :func:`traverse_sublists` advances the walks in
#: lock-step; below it each walk is chased on its own (see docs/MODELS.md).
LOCKSTEP_MIN_WALKS = 256


@dataclass
class Traversal:
    """Everything measured by one sublist traversal.

    Attributes
    ----------
    local:
        Inclusive within-sublist prefix per node (``local[v] = value of
        sublist head ⊕ … ⊕ value of v``).
    sublist_id:
        Walk index owning each node.
    pos:
        0-based position of each node within its sublist.
    lengths:
        Node count per walk.
    stop_node:
        Per walk, the marked node at which it stopped (head of the next
        sublist), or ``TAIL`` for the final sublist.
    totals:
        Per walk, ⊕ over all its values (== ``local`` of its last node).
    seq_steps:
        Per walk, number of successor transitions that moved to
        ``position + 1`` (the contiguous-access count).
    rounds:
        Number of synchronous rounds == length of the longest sublist.
    """

    local: np.ndarray
    sublist_id: np.ndarray
    pos: np.ndarray
    lengths: np.ndarray
    stop_node: np.ndarray
    totals: np.ndarray
    seq_steps: np.ndarray
    rounds: int

    @property
    def n_walks(self) -> int:
        return len(self.lengths)

    def next_walk(self) -> np.ndarray:
        """Successor walk per walk (−1 for the last sublist).

        Derived from ``stop_node``: the walk whose head is this walk's
        stop node comes next in list order.
        """
        n = len(self.local)
        walk_of_head = np.full(n, -1, dtype=np.int64)
        heads = np.flatnonzero(self.pos == 0)
        walk_of_head[heads] = self.sublist_id[heads]
        out = np.full(self.n_walks, -1, dtype=np.int64)
        has = self.stop_node != TAIL
        out[has] = walk_of_head[self.stop_node[has]]
        return out

    def chain_order(self) -> np.ndarray:
        """Walk indices in list order (head's walk first)."""
        nw = self.next_walk()
        order = np.empty(self.n_walks, dtype=np.int64)
        pointed_to = np.zeros(self.n_walks, dtype=bool)
        pointed_to[nw[nw >= 0]] = True
        start = int(np.flatnonzero(~pointed_to)[0])
        w = start
        for i in range(self.n_walks):
            order[i] = w
            w = int(nw[w])
        return order


def walk_traces(
    trav: Traversal, assign: np.ndarray, p: int, nxt_base: int, out_base: int
) -> list[np.ndarray]:
    """Per-processor address streams of a sublist traversal.

    Each visited node contributes a read of ``nxt[node]`` and a write of
    ``out[node]`` (Helman–JáJá's ``local``, the MTA walks' ``rank``);
    nodes appear in walk order, walks in assignment order — the order
    the owning processor would issue them.
    """
    n = len(trav.local)
    order = np.lexsort((trav.pos, trav.sublist_id))  # nodes grouped by walk, in walk order
    nodes_by_walk = np.arange(n, dtype=np.int64)[order]
    walk_starts = np.zeros(trav.n_walks + 1, dtype=np.int64)
    np.cumsum(trav.lengths, out=walk_starts[1:])
    traces: list[np.ndarray] = []
    for proc in range(p):
        walks = np.flatnonzero(assign == proc)
        chunks = [nodes_by_walk[walk_starts[w] : walk_starts[w + 1]] for w in walks]
        nodes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        addrs = np.empty((len(nodes), 2), dtype=np.int64)
        addrs[:, 0] = nxt_base + nodes
        addrs[:, 1] = out_base + nodes
        traces.append(addrs.ravel())
    return traces


def traverse_sublists(
    nxt: np.ndarray,
    subheads: np.ndarray,
    values: np.ndarray,
    op: PrefixOp,
) -> Traversal:
    """Walk all sublists, choosing the strategy by the number of walks.

    Below :data:`LOCKSTEP_MIN_WALKS` walks each one is chased on its
    own; from there up the walks advance in lock-step.  Lock-step costs
    one round of about 30 NumPy operations per node of the longest
    sublist, however many walks there are; the chase costs one
    plain-Python step per node plus a few NumPy calls per walk.  So few
    long sublists (Helman–JáJá's 8p) favour the chase and many short
    ones (the MTA model's) the lock-step.  On random lists of 4K–1M
    nodes the measured crossover is 128–400 walks (docs/MODELS.md).
    The two paths are tested to give identical results.

    Parameters
    ----------
    nxt:
        Successor array (:data:`~repro.lists.generate.TAIL` marks the tail).
    subheads:
        Marked nodes — sublist heads.  Must be unique and include the
        true list head, otherwise the segment before the first marked
        node would never be visited (checked; raises
        :class:`~repro.errors.WorkloadError`).
    values, op:
        Per-node values and the associative operator for the prefix.
    """
    subheads = np.asarray(subheads, dtype=np.int64)
    s = len(subheads)
    if s == 0:
        raise WorkloadError("need at least one sublist head")
    if len(np.unique(subheads)) != s:
        raise WorkloadError("sublist heads must be unique")
    values = np.asarray(values)
    walk = _traverse_chase if s < LOCKSTEP_MIN_WALKS else _traverse_lockstep
    return walk(nxt, subheads, values, op)


def _traverse_lockstep(
    nxt: np.ndarray, subheads: np.ndarray, values: np.ndarray, op: PrefixOp
) -> Traversal:
    """Round-synchronous sweep: the many-short-sublists strategy.

    Every active walk advances one node per round, so the cost is about
    30 NumPy operations per node of the longest sublist.
    """
    n = len(nxt)
    s = len(subheads)
    marked = np.zeros(n, dtype=bool)
    marked[subheads] = True

    acc_dtype = np.result_type(values.dtype, np.asarray(op.identity).dtype, op.dtype)
    local = np.zeros(n, dtype=acc_dtype)
    sublist_id = np.full(n, -1, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    lengths = np.ones(s, dtype=np.int64)
    stop_node = np.full(s, TAIL, dtype=np.int64)
    seq_steps = np.zeros(s, dtype=np.int64)

    cur = subheads.copy()
    running = values[cur].astype(acc_dtype, copy=True)
    local[cur] = running
    sublist_id[cur] = np.arange(s)
    pos[cur] = 0

    active = np.arange(s, dtype=np.int64)
    rounds = 0
    while active.size:
        rounds += 1
        succ = nxt[cur[active]]
        at_tail = succ == TAIL
        hit_marked = np.zeros(len(active), dtype=bool)
        valid = ~at_tail
        hit_marked[valid] = marked[succ[valid]]
        stop_node[active[hit_marked]] = succ[hit_marked]
        cont = ~(at_tail | hit_marked)
        w = active[cont]
        nodes = succ[cont]
        seq_steps[w] += nodes == cur[w] + 1
        running[w] = op(running[w], values[nodes])
        local[nodes] = running[w]
        sublist_id[nodes] = w
        pos[nodes] = lengths[w]
        lengths[w] += 1
        cur[w] = nodes
        active = w

    if np.any(sublist_id < 0):
        raise WorkloadError(
            "traversal left nodes unvisited — sublist heads must include the list head"
        )
    return Traversal(
        local=local,
        sublist_id=sublist_id,
        pos=pos,
        lengths=lengths,
        stop_node=stop_node,
        totals=running,
        seq_steps=seq_steps,
        rounds=rounds,
    )


def _traverse_chase(
    nxt: np.ndarray, subheads: np.ndarray, values: np.ndarray, op: PrefixOp
) -> Traversal:
    """Per-walk pointer chase: the few-long-sublists strategy.

    Same outputs as the lock-step path; plain-Python inner loop over
    each sublist (lists of native ints make the chase ~10× faster than
    NumPy scalar indexing).
    """
    n = len(nxt)
    s = len(subheads)
    marked = np.zeros(n, dtype=bool)
    marked[subheads] = True

    acc_dtype = np.result_type(values.dtype, np.asarray(op.identity).dtype, op.dtype)
    local = np.zeros(n, dtype=acc_dtype)
    sublist_id = np.full(n, -1, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    lengths = np.zeros(s, dtype=np.int64)
    stop_node = np.full(s, TAIL, dtype=np.int64)
    seq_steps = np.zeros(s, dtype=np.int64)

    totals = np.zeros(s, dtype=acc_dtype)
    nxt_l = nxt.tolist()
    marked_l = marked.tolist()
    max_len = 0
    for w, head in enumerate(subheads.tolist()):
        # fast plain-Python chase collecting the walk's node sequence
        run = [head]
        j = head
        while True:
            succ = nxt_l[j]
            if succ == TAIL:
                stop_node[w] = TAIL
                break
            if marked_l[succ]:
                stop_node[w] = succ
                break
            run.append(succ)
            j = succ
        nodes = np.asarray(run, dtype=np.int64)
        k = len(nodes)
        prefix = op.accumulate(values[nodes].astype(acc_dtype))
        local[nodes] = prefix
        sublist_id[nodes] = w
        pos[nodes] = np.arange(k)
        lengths[w] = k
        seq_steps[w] = int((np.diff(nodes) == 1).sum()) if k > 1 else 0
        totals[w] = prefix[-1]
        max_len = max(max_len, k)

    if np.any(sublist_id < 0):
        raise WorkloadError(
            "traversal left nodes unvisited — sublist heads must include the list head"
        )
    return Traversal(
        local=local,
        sublist_id=sublist_id,
        pos=pos,
        lengths=lengths,
        stop_node=stop_node,
        totals=totals,
        seq_steps=seq_steps,
        rounds=max_len,
    )
