"""Machine model and engine for the multithreaded (Cray MTA-2 style) machine.

The machine-specific physics live in :class:`MTAMachine`, a
:class:`~repro.sim.kernel.MachineModel` plug-in; the run loop,
watchdog, barriers, phases, and instrumentation are the shared
:class:`~repro.sim.kernel.SimKernel`'s.  What makes this machine an
MTA:

* Each of the ``p`` processors holds up to ``streams_per_proc`` streams
  and issues **one instruction per cycle from some ready stream**,
  round-robin among ready streams (the kernel's ``"interleaved"``
  scheduling discipline — the hardware's fair scheduler).
* A memory operation takes ``mem_latency`` cycles.  After issuing one,
  a stream may issue up to ``lookahead`` further instructions (the
  compiler-scheduled lookahead; the MTA-2 allowed 8 outstanding
  references per stream) before it must wait — a *dependent* load
  (``LD``) waits immediately.
* ``int_fetch_add`` is atomic and its target cell services **one
  request per cycle**: concurrent FAs to one counter serialize, the
  hotspot the paper mentions.
* Full/empty bits implement synchronous loads and stores with real
  blocking and FIFO wakeup.
* Barriers block until every registered participant arrives
  (registration is required — no implicit barriers here).

There are no caches and no locality effects: an address's cost is the
flat memory latency, exactly like the hashed MTA memory.  (Addresses
still matter — FA serialization and full/empty state are per-address,
and with ``n_banks`` enabled each hashed bank admits one request per
cycle.)

Observability (``PHASE`` slices, contention counters in
``SimReport.detail``, optional tracer / concurrency checker) attaches
through the kernel's :class:`~repro.sim.hooks.HookBus`; see
:mod:`repro.obs`, ``docs/OBSERVABILITY.md``, and ``docs/SIMULATION.md``.
"""

from __future__ import annotations

import numbers
from collections import deque
from heapq import heappush

from ..errors import ConfigurationError, SimulationError
from .isa import (
    COMPUTE,
    FETCH_ADD,
    LOAD,
    LOAD_DEP,
    STORE,
    SYNC_LOAD_EMPTY,
    SYNC_LOAD_FULL,
    SYNC_STORE_FULL,
)
from .kernel import INTERLEAVED, Engine, MachineModel, SimKernel
from .thread import BLOCKED, WAIT_EMPTY, WAIT_FULL

__all__ = ["MTAEngine", "MTAMachine", "check_at_least_one"]


def check_at_least_one(**values: int) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` naming the first
    of ``values`` below 1: the machine's processor count, and the stream
    count, walk length and chunk size the MTA programs and the Alg. 3
    counterpart check before any engine phase or step (a chunk of 0
    would spin until the watchdog).
    """
    for name, value in values.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


class MTAMachine(MachineModel):
    """Flat hashed memory + streams + full/empty bits, as a kernel plug-in.

    ``streams_per_proc``, ``mem_latency``, ``lookahead`` and ``n_banks``
    are described in the module docstring; ``max_outstanding`` caps a
    stream's in-flight memory references (8 on the MTA-2),
    ``barrier_latency`` is the cycles from last arrival to release, and
    ``clock_hz`` converts cycles to seconds in reports.
    """

    kind = "mta"
    scheduling = INTERLEAVED
    implicit_barriers = False
    default_budget = 200_000_000

    def __init__(
        self,
        p: int = 1,
        *,
        streams_per_proc: int = 128,
        mem_latency: int = 100,
        lookahead: int = 2,
        max_outstanding: int = 8,
        barrier_latency: int = 20,
        clock_hz: float = 220e6,
        n_banks: int = 0,
    ):
        # The cycle counts and capacities of an integer-cycle machine, with
        # the least legal value of each: the analytic MTAConfig's rules,
        # except that a lookahead of 0 (no issue past a reference) is legal.
        for name, value, least in (
            ("streams_per_proc", streams_per_proc, 1),
            ("mem_latency", mem_latency, 1),
            ("lookahead", lookahead, 0),
            ("max_outstanding", max_outstanding, 1),
            ("barrier_latency", barrier_latency, 0),
            ("n_banks", n_banks, 0),
        ):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigurationError(f"{name} must be >= {least}, got {value}")
        check_at_least_one(p=p)
        if n_banks & (n_banks - 1):
            raise ConfigurationError(f"n_banks must be 0 or a power of two, got {n_banks}")
        self.p = p
        self.streams_per_proc = streams_per_proc
        self.threads_per_proc = streams_per_proc
        self.mem_latency = mem_latency
        self.lookahead = lookahead
        self.max_outstanding = max_outstanding
        self.barrier_latency = barrier_latency
        self.clock_hz = clock_hz
        self.n_banks = n_banks
        self.fast_forward = n_banks == 0  # bank queues admit no closed-form window
        self._bank_next_free: dict[int, int] = {}
        self.bank_contention_stalls = 0
        # full/empty memory: address present in _full ⇔ word is Full
        self._full: dict[int, object] = {}
        self._wait_full: dict[int, deque] = {}
        self._wait_empty: dict[int, deque] = {}
        # fetch-add cells
        self.fa_values: dict[int, int] = {}
        self._fa_next_free: dict[int, int] = {}
        self.fa_serialization_stalls = 0
        #: addr -> [ops, serialization stall cycles] per fetch-add cell.
        self._fa_sites: dict[int, list] = {}
        #: log2 bucket -> full/empty wait episodes; plus total wait cycles.
        self._fe_wait_hist: dict[int, int] = {}
        self.fe_wait_cycles = 0

    def barrier_release_cost(self) -> int:
        return self.barrier_latency

    def init_counter(self, addr: int, value: int) -> None:
        self.fa_values[addr] = value

    def init_full(self, addr: int, value) -> None:
        self._full[addr] = value

    # -- contention bookkeeping -------------------------------------------------

    def _fe_wait(self, since: int, now: int) -> None:
        """Record one full/empty wait episode ending now."""
        wait = now - since
        bucket = 0 if wait <= 0 else int(wait).bit_length()
        self._fe_wait_hist[bucket] = self._fe_wait_hist.get(bucket, 0) + 1
        self.fe_wait_cycles += max(0, wait)

    def _mem_done(self, addr: int, cycle: int) -> int:
        """Completion cycle of a memory reference issued now on banked
        memory: the hashed bank serving ``addr`` admits one request per
        cycle, so colliding references queue.
        """
        earliest = cycle + self.mem_latency
        from ..arch.memory import bank_of

        bank = int(bank_of(addr, self.n_banks))
        done = max(earliest, self._bank_next_free.get(bank, 0) + 1)
        self.bank_contention_stalls += done - earliest
        self._bank_next_free[bank] = done
        return done

    # -- full/empty semantics ---------------------------------------------------

    def _fill(self, kernel: SimKernel, addr: int, value, cycle: int) -> None:
        """Set a word Full and service waiting sync-loads FIFO."""
        full = self._full
        full[addr] = value
        waiters = self._wait_full.get(addr)
        mem_latency = self.mem_latency
        while waiters and addr in full:
            w = waiters.popleft()
            mode = w.pending_value
            w.pending_value = full[addr]
            h_sync = kernel._h_sync
            if h_sync is not None:
                consume = mode == SYNC_LOAD_EMPTY
                for fn in h_sync:
                    fn(w.tid, addr, "read", consume)
            self._fe_wait(w.wait_since, cycle)
            h_span = kernel._h_span
            if h_span is not None:
                for fn in h_span:
                    fn(f"{mode}:wait", w.wait_since, cycle + mem_latency,
                       w.proc, w.tid, {"addr": addr})
            kernel.block_until(w, cycle + mem_latency)
            if mode == SYNC_LOAD_EMPTY:
                del full[addr]
                self._drain_empty_waiters(kernel, addr, cycle)

    def _drain_empty_waiters(self, kernel: SimKernel, addr: int, cycle: int) -> None:
        """A word just became Empty: let one waiting producer store."""
        waiters = self._wait_empty.get(addr)
        if waiters and addr not in self._full:
            w = waiters.popleft()
            value = w.pending_value
            w.pending_value = None
            h_sync = kernel._h_sync
            if h_sync is not None:
                for fn in h_sync:
                    fn(w.tid, addr, "write", False)
            self._fe_wait(w.wait_since, cycle)
            h_span = kernel._h_span
            if h_span is not None:
                for fn in h_span:
                    fn("SSF:wait", w.wait_since, cycle + self.mem_latency,
                       w.proc, w.tid, {"addr": addr})
            kernel.block_until(w, cycle + self.mem_latency)
            self._fill(kernel, addr, value, cycle)

    # -- dispatch table ---------------------------------------------------------

    def handlers(self, kernel: SimKernel) -> dict:
        """Interleaved-mode handlers: ``(proc, thread, op, cycle)``."""
        mem_latency = self.mem_latency
        max_outstanding = self.max_outstanding
        block_until = kernel.block_until
        fa_values = self.fa_values
        fa_next_free = self._fa_next_free
        fa_sites = self._fa_sites
        full = self._full
        wait_full = self._wait_full
        wait_empty = self._wait_empty
        # Uniform memory (no banks) completes every reference at
        # cycle + mem_latency; only banked memory needs _mem_done.
        banked = bool(self.n_banks)
        mem_done = self._mem_done
        # the kernel's hook shortcuts are fixed when it is built
        h_span = kernel._h_span
        h_sync = kernel._h_sync

        def h_compute(proc, t, op, cycle):
            k = op[1]
            if k < 1:
                raise SimulationError(f"compute burst must be >= 1, got {k}")
            t.compute_remaining = k - 1
            if h_span is not None:
                for fn in h_span:
                    fn("C", cycle, cycle + k, t.proc, t.tid, None)
            proc.ready.append(t)

        # L, S and LD park a stream on its processor's wake heap
        # themselves: the same three steps as kernel.block_until.
        def h_mem(proc, t, op, cycle):
            done_at = mem_done(op[1], cycle) if banked else cycle + mem_latency
            if h_span is not None:
                for fn in h_span:
                    fn(op[0], cycle, done_at, t.proc, t.tid, {"addr": op[1]})
            out = t.outstanding
            out.append(done_at)
            if len(out) > max_outstanding:
                when = out.popleft()
            elif t.lookahead_credit > 0:
                t.lookahead_credit -= 1
                proc.ready.append(t)
                return
            else:
                when = out[0]
            t.state = BLOCKED
            t.wake_at = when
            heappush(proc.wake, (when, t.tid, t))

        def h_load_dep(proc, t, op, cycle):
            done_at = mem_done(op[1], cycle) if banked else cycle + mem_latency
            if h_span is not None:
                for fn in h_span:
                    fn(LOAD_DEP, cycle, done_at, t.proc, t.tid, {"addr": op[1]})
            t.state = BLOCKED
            t.wake_at = done_at
            heappush(proc.wake, (done_at, t.tid, t))

        def h_fetch_add(proc, t, op, cycle):
            addr = op[1]
            inc = op[2] if len(op) > 2 else 1
            old = fa_values.get(addr, 0)
            fa_values[addr] = old + inc
            earliest = cycle + mem_latency
            done_at = fa_next_free.get(addr, 0) + 1
            if done_at < earliest:
                done_at = earliest
            stall = done_at - earliest
            self.fa_serialization_stalls += stall
            site = fa_sites.get(addr)
            if site is None:
                site = fa_sites[addr] = [0, 0]
            site[0] += 1
            site[1] += stall
            fa_next_free[addr] = done_at
            t.pending_value = old
            if h_span is not None:
                for fn in h_span:
                    fn("FA", cycle, done_at, t.proc, t.tid,
                       {"addr": addr, "stall": stall})
            block_until(t, done_at)

        def h_sync_load(proc, t, op, cycle):
            tag = op[0]
            addr = op[1]
            if addr in full:
                value = full[addr]
                if h_sync is not None:
                    consume = tag == SYNC_LOAD_EMPTY
                    for fn in h_sync:
                        fn(t.tid, addr, "read", consume)
                if tag == SYNC_LOAD_EMPTY:
                    del full[addr]
                    self._drain_empty_waiters(kernel, addr, cycle)
                t.pending_value = value
                if h_span is not None:
                    for fn in h_span:
                        fn(tag, cycle, cycle + mem_latency, t.proc, t.tid,
                           {"addr": addr})
                block_until(t, cycle + mem_latency)
            else:
                t.state = WAIT_FULL
                t.wait_since = cycle
                t.pending_value = tag  # remember consume-vs-peek
                q = wait_full.get(addr)
                if q is None:
                    q = wait_full[addr] = deque()
                q.append(t)

        def h_sync_store(proc, t, op, cycle):
            addr, value = op[1], op[2]
            if addr not in full:
                if h_span is not None:
                    for fn in h_span:
                        fn(SYNC_STORE_FULL, cycle, cycle + mem_latency,
                           t.proc, t.tid, {"addr": addr})
                if h_sync is not None:
                    for fn in h_sync:
                        fn(t.tid, addr, "write", False)
                self._fill(kernel, addr, value, cycle)
                block_until(t, cycle + mem_latency)
            else:
                t.state = WAIT_EMPTY
                t.wait_since = cycle
                t.pending_value = value  # the value awaiting an Empty slot
                q = wait_empty.get(addr)
                if q is None:
                    q = wait_empty[addr] = deque()
                q.append(t)

        return {
            COMPUTE: h_compute,
            LOAD: h_mem,
            STORE: h_mem,
            LOAD_DEP: h_load_dep,
            FETCH_ADD: h_fetch_add,
            SYNC_LOAD_EMPTY: h_sync_load,
            SYNC_LOAD_FULL: h_sync_load,
            SYNC_STORE_FULL: h_sync_store,
        }

    # -- serializable-state contract --------------------------------------------

    state_version = 1

    def config_state(self) -> dict:
        return {
            "streams_per_proc": self.streams_per_proc,
            "mem_latency": self.mem_latency,
            "lookahead": self.lookahead,
            "max_outstanding": self.max_outstanding,
            "barrier_latency": self.barrier_latency,
            "clock_hz": self.clock_hz,
            "n_banks": self.n_banks,
        }

    def to_state(self) -> dict:
        return {
            "bank_next_free": dict(self._bank_next_free),
            "bank_contention_stalls": self.bank_contention_stalls,
            "full": dict(self._full),
            "wait_full": {a: [w.tid for w in q] for a, q in self._wait_full.items() if q},
            "wait_empty": {a: [w.tid for w in q] for a, q in self._wait_empty.items() if q},
            "fa_values": dict(self.fa_values),
            "fa_next_free": dict(self._fa_next_free),
            "fa_serialization_stalls": self.fa_serialization_stalls,
            "fa_sites": {a: list(v) for a, v in self._fa_sites.items()},
            "fe_wait_hist": dict(self._fe_wait_hist),
            "fe_wait_cycles": self.fe_wait_cycles,
        }

    def from_state(self, state: dict, kernel: SimKernel) -> None:
        # in-place updates: handlers close over these dicts by reference
        threads = kernel.threads
        self._bank_next_free.clear()
        self._bank_next_free.update(state["bank_next_free"])
        self.bank_contention_stalls = state["bank_contention_stalls"]
        self._full.clear()
        self._full.update(state["full"])
        self._wait_full.clear()
        for a, tids in state["wait_full"].items():
            self._wait_full[a] = deque(threads[tid] for tid in tids)
        self._wait_empty.clear()
        for a, tids in state["wait_empty"].items():
            self._wait_empty[a] = deque(threads[tid] for tid in tids)
        self.fa_values.clear()
        self.fa_values.update(state["fa_values"])
        self._fa_next_free.clear()
        self._fa_next_free.update(state["fa_next_free"])
        self.fa_serialization_stalls = state["fa_serialization_stalls"]
        self._fa_sites.clear()
        self._fa_sites.update({a: list(v) for a, v in state["fa_sites"].items()})
        self._fe_wait_hist.clear()
        self._fe_wait_hist.update(state["fe_wait_hist"])
        self.fe_wait_cycles = state["fe_wait_cycles"]

    # -- diagnosis / reporting --------------------------------------------------

    def blocked_rows(self) -> list:
        """Full/empty wait inventory; the kernel appends barrier waiters."""
        rows = []
        for addr, waiters in self._wait_full.items():
            for w in waiters:
                rows.append({"tid": w.tid, "state": WAIT_FULL, "addr": addr})
        for addr, waiters in self._wait_empty.items():
            for w in waiters:
                rows.append({"tid": w.tid, "state": WAIT_EMPTY, "addr": addr})
        return rows

    def report_detail(self, kernel: SimKernel) -> dict:
        detail = {
            "fa_serialization_stalls": self.fa_serialization_stalls,
            "fa_sites": {a: tuple(v) for a, v in self._fa_sites.items()},
            "fe_wait_hist": dict(self._fe_wait_hist),
            "fe_wait_cycles": self.fe_wait_cycles,
            "barrier_waits": {
                bid: {"episodes": v[0], "wait_cycles": v[1], "max_wait": v[2]}
                for bid, v in kernel.barrier_stats.items()
            },
        }
        if self.n_banks:
            detail["bank_contention_stalls"] = self.bank_contention_stalls
        return detail


class MTAEngine(Engine):
    """The :class:`~repro.sim.kernel.Engine` facade over :class:`MTAMachine`."""

    machine_class = MTAMachine
