"""The single simulation kernel behind every cycle-level machine.

The paper's central claim is architectural: the *same* kernels run on
two machines whose only real difference is the memory / latency /
synchronization model.  This module makes the codebase say the same
thing.  :class:`SimKernel` owns everything machine-independent about
cycle-level simulation —

* the run loop (two scheduling disciplines, below),
* thread creation and placement,
* the watchdog ``budget`` (one knob; :class:`~repro.errors.WatchdogExceeded`),
* the barrier registry, release bookkeeping, and wait statistics,
* ``PHASE`` marks and the phase-slice partition of the run,
* the blocked-thread inventory and deadlock diagnosis,
* :class:`~repro.sim.stats.SimReport` assembly,
* all instrumentation, emitted through one :class:`~repro.sim.hooks.HookBus` —

while a :class:`MachineModel` plug-in supplies only what makes a machine
that machine: per-opcode cost/semantics handlers (a precomputed dispatch
table, no ``if``/``elif`` chain in the hot loop), memory timing, and the
machine's contribution to ``SimReport.detail``.

Two scheduling disciplines cover the paper's machines:

``"event"``
    One thread per processor, each advancing in its own local time;
    a heap of ``(time, proc)`` orders them globally (the SMP: threads
    interact only through the bus and barriers, so there is no
    per-cycle loop and large programs simulate quickly).
``"interleaved"``
    Many streams per processor, one instruction issued per processor
    per cycle from some ready stream, round-robin, with fast-forward
    over globally idle spans (the MTA's fair hardware scheduler).

A new machine registers in a single module with zero edits here: define
a :class:`MachineModel` subclass, wrap it in an engine facade (or reuse
:class:`repro.sim.MTAEngine`'s), and call
:func:`repro.sim.machines.register_machine`.  See ``docs/SIMULATION.md``.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    CheckpointError,
    ConfigurationError,
    DeadlockError,
    RunPaused,
    SimulationError,
    WatchdogExceeded,
)
from .hooks import CheckerHook, HookBus, TracerHook
from .isa import BARRIER, COMPUTE, PHASE, RUN_BLOCK
from .stats import PhaseSlice, SimReport
from .thread import BLOCKED, DONE, READY, WAIT_BARRIER, SimThread

__all__ = [
    "SimKernel",
    "MachineModel",
    "EVENT",
    "INTERLEAVED",
    "TIERS",
    "CHECKPOINT_STATE_VERSION",
]

#: Version of the kernel-state dict produced by :meth:`SimKernel.snapshot`.
#: Bumped whenever the snapshot layout changes, so stale on-disk
#: checkpoints are rejected structurally instead of misrestoring.
CHECKPOINT_STATE_VERSION = 1

#: Scheduling disciplines a :class:`MachineModel` may declare.
EVENT = "event"
INTERLEAVED = "interleaved"

#: Execution tiers a caller may request (see docs/SIMULATION.md,
#: "Execution tiers").  ``auto`` picks ``vector`` whenever the machine
#: publishes a :meth:`MachineModel.vector_profile` and nobody demands
#: per-op fidelity (an ``on_op``/``on_op_span``/``on_sync`` subscriber
#: — a checker or an op-level tracer); otherwise ``interpreted``.
TIERS = ("auto", "interpreted", "vector")

#: HookBus events whose subscribers require the interpreted tier: they
#: observe individual ops or sync transitions, which the vectorized
#: windows skip by construction.
_FIDELITY_EVENTS = ("on_op", "on_op_span", "on_sync")


class MachineModel:
    """What a machine must supply to run under :class:`SimKernel`.

    Subclasses override the class attributes and the protocol methods;
    the kernel never special-cases a concrete machine.  The contract:

    Attributes
    ----------
    kind:
        Short machine name (``"smp"``, ``"mta"``, …); reported to hooks
        via ``attach_engine`` and used in diagnostics.
    scheduling:
        :data:`EVENT` or :data:`INTERLEAVED` (see module docstring).
    clock_hz:
        For seconds conversion in reports.
    default_budget:
        Watchdog budget when ``run(budget=None)``: scheduling steps for
        event machines, cycles for interleaved ones.
    implicit_barriers:
        If True, a barrier op on an unregistered id auto-registers it
        with ``need = p`` (the SMP's software barriers); otherwise the
        op raises (the MTA requires ``register_barrier``).
    owns_barriers:
        If True, the kernel hands every ``B`` op to
        :meth:`barrier_op` instead of its own registry — for machines
        whose barriers span more than one kernel (the sharded machines
        of :mod:`repro.sim.shard`, where participants live in other
        worker processes).  Interleaved machines only.
    threads_per_proc:
        Stream capacity per processor (interleaved machines); event
        machines always run exactly one thread per processor.
    lookahead:
        Instructions a stream may issue past an outstanding memory op
        before it must wait (interleaved machines; the kernel resets
        each stream's credit whenever it has no outstanding refs).
    """

    kind = "machine"
    scheduling = EVENT
    clock_hz = 1e9
    default_budget = 500_000_000
    implicit_barriers = False
    owns_barriers = False
    threads_per_proc = 1
    lookahead = 0

    def __init__(self, p: int = 1):
        if p < 1:
            raise ConfigurationError("p must be >= 1")
        self.p = p

    # -- protocol ---------------------------------------------------------------

    def handlers(self, kernel: "SimKernel") -> dict:
        """Per-opcode dispatch table: ``{tag: handler}``.

        Event machines: ``handler(thread, op, time) -> end_time`` — pure
        cost/semantics; the kernel reschedules the thread at the
        returned local time and emits its occupancy span.

        Interleaved machines: ``handler(proc, thread, op, cycle)`` — the
        handler decides the thread's fate itself (requeue via
        ``proc.ready.append``, or ``kernel.block_until``) and emits any
        spans/sync events through the kernel's hook shortcuts.

        ``BARRIER`` and ``PHASE`` need no entry: the kernel owns them.
        """
        raise NotImplementedError

    def thread_state(self):
        """Model-private per-thread state (stored on ``thread.mstate``)."""
        return None

    def barrier_release_cost(self):
        """Cycles from last arrival at a barrier to release."""
        return 0

    def init_counter(self, addr: int, value: int) -> None:
        """Initialize a fetch-add cell."""
        raise ConfigurationError(f"{self.kind} does not model fetch-add cells")

    def init_full(self, addr: int, value) -> None:
        """Pre-set a full/empty word to Full."""
        raise ConfigurationError(f"{self.kind} does not model full/empty memory")

    def blocked_rows(self) -> list:
        """Inventory rows for threads blocked on model-owned state
        (full/empty waits); the kernel appends barrier waiters itself."""
        return []

    def barrier_op(self, kernel: "SimKernel", t, bid: str, cycle: int) -> None:
        """Handle a ``B`` op when :attr:`owns_barriers` is True.

        The issue slot is already charged; the model must park ``t``
        (and eventually wake it via ``kernel.block_until``)."""
        raise ConfigurationError(f"{self.kind} does not own barriers")

    def report_detail(self, kernel: "SimKernel") -> dict:
        """The machine's ``SimReport.detail`` dict (contention counters)."""
        return {}

    def vector_profile(self):
        """A :class:`~repro.sim.fastpath.VectorProfile` if the vectorized
        fast tier may run on this machine, else None (the default: a
        machine must opt in by declaring which closed-form fast-forwards
        are sound for its memory model)."""
        return None

    # -- serializable-state contract (checkpoint/restore) ----------------------

    #: Version of the dict produced by :meth:`to_state`; bump on layout
    #: changes so stale checkpoints are rejected instead of misrestored.
    state_version = 1

    @property
    def checkpointable(self) -> bool:
        """True when the machine implements :meth:`to_state`/:meth:`from_state`."""
        return type(self).to_state is not MachineModel.to_state

    def config_state(self) -> dict:
        """Machine configuration folded into the checkpoint setup digest.

        Geometry/latency knobs that must match exactly between the
        checkpointed kernel and the one restoring (a checkpoint taken on
        a machine with different parameters is a different simulation).
        """
        return {}

    def to_state(self) -> dict:
        """Serializable machine-owned run state.

        Everything the machine mutates during a run that is not derivable
        from the setup: full/empty words, fetch-add cells, bus/bank
        timing, contention counters.  The default marks the machine as
        *not* checkpointable — models opt in by overriding this together
        with :meth:`from_state`.
        """
        raise CheckpointError(
            f"machine {self.kind!r} does not implement the serializable-state "
            "contract (to_state/from_state)"
        )

    def from_state(self, state: dict, kernel: "SimKernel") -> None:
        """Restore :meth:`to_state` output (``kernel`` maps tids to threads)."""
        raise CheckpointError(
            f"machine {self.kind!r} does not implement the serializable-state "
            "contract (to_state/from_state)"
        )

    def pack_thread_state(self, mstate):
        """Picklable form of one thread's model-private ``mstate``."""
        if mstate is None:
            return None
        raise CheckpointError(
            f"machine {self.kind!r} does not serialize per-thread model state"
        )

    def unpack_thread_state(self, packed):
        """Inverse of :meth:`pack_thread_state`."""
        if packed is None:
            return None
        raise CheckpointError(
            f"machine {self.kind!r} does not serialize per-thread model state"
        )


@dataclass
class _Proc:
    """One interleaved processor: its ready queue and wake heap."""

    ready: deque = field(default_factory=deque)
    wake: list = field(default_factory=list)  # heap of (cycle, tid, thread)
    issued: int = 0
    live: int = 0


@dataclass
class _Barrier:
    need: int
    waiting: list = field(default_factory=list)


class SimKernel:
    """Machine-independent run loop; see the module docstring.

    Parameters
    ----------
    model:
        The :class:`MachineModel` to execute under.
    tracer:
        Optional :class:`repro.obs.Tracer`, attached to the bus via
        :class:`~repro.sim.hooks.TracerHook`.
    check:
        Optional :class:`repro.analysis.ConcurrencyChecker`, attached
        via :class:`~repro.sim.hooks.CheckerHook`.
    hooks:
        Additional pre-built hook objects (any object implementing a
        subset of :data:`~repro.sim.hooks.HOOK_EVENTS`).
    tier:
        Execution tier (one of :data:`TIERS`): ``"auto"`` (default)
        uses the vectorized fast path whenever the machine supports it
        and no subscriber demands per-op fidelity; ``"interpreted"``
        forces the per-op path; ``"vector"`` demands the fast path and
        raises :class:`~repro.errors.ConfigurationError` if fidelity
        requirements or the machine forbid it — never a silent
        downgrade.  ``run(tier=...)`` overrides per run.
    """

    def __init__(
        self,
        model: MachineModel,
        *,
        tracer=None,
        check=None,
        hooks=(),
        tier="auto",
        record=False,
    ):
        self.model = model
        self.p = model.p
        self.event_mode = model.scheduling == EVENT
        if not self.event_mode and model.scheduling != INTERLEAVED:
            raise ConfigurationError(
                f"unknown scheduling discipline {model.scheduling!r}"
            )
        bus = HookBus()
        if tracer is not None:
            bus.add(TracerHook(tracer))
        if check is not None:
            bus.add(CheckerHook(check))
        for h in hooks:
            bus.add(h)
        self.bus = bus

        self.threads: list[SimThread] = []
        self.procs = [_Proc() for _ in range(self.p)] if not self.event_mode else []
        self._next_proc = 0
        self._live = 0
        self._last_issue = -1
        self._barriers: dict[str, _Barrier] = {}
        self._op_counts: dict[str, int] = {}
        self._phase_snaps: list = []
        #: event mode: per-processor cycles spent waiting at barriers.
        self.barrier_wait_per_proc = [0.0] * self.p
        self.barrier_episodes = 0
        #: interleaved mode: barrier id -> [arrivals, wait cycles, max wait].
        self.barrier_stats: dict[str, list] = {}
        # per-run hook shortcuts (tuples of callables, or None = disabled);
        # model handlers read these to emit spans / sync events cheaply.
        self._h_span = None
        self._h_sync = None
        self._h_release = None
        if tier not in TIERS:
            raise ConfigurationError(f"unknown tier {tier!r}; expected one of {TIERS}")
        self.tier = tier
        #: Tier the last run resolved to ("vector" or "interpreted").
        self.tier_used: str | None = None
        #: True when a mid-run subscription forced the vector tier to
        #: demote to per-op execution for the rest of the run.
        self.tier_demoted = False
        #: Fast-forward window accounting (not part of SimReport — the
        #: report must stay byte-identical across tiers).
        self._window_stats = {"windows": 0, "ops": 0}
        # checkpoint/restore machinery: when recording, every generator
        # resume is logged (tid order + non-None sent values) so restore
        # can replay the run's Python-side effects exactly; the setup
        # digest fingerprints the attached workload so a checkpoint can
        # only be restored onto the same setup.
        self._rec_tids: list | None = [] if record else None
        self._rec_vals: list = []
        #: A model handler may set this (a cycle) to pull the next
        #: service-callback invocation forward; see :meth:`run`.
        self.service_wake: int | None = None
        self._setup_hash = hashlib.sha256(
            repr((model.kind, model.scheduling, model.p, model.config_state())).encode()
        )
        self._resume_ctx: dict | None = None
        self._run_name = None
        bus.attach_engine(model.kind, self.p)

    # -- setup ------------------------------------------------------------------

    def add_thread(self, gen, proc: int | None = None) -> SimThread:
        """Create a simulated thread running ``gen``.

        Event machines get one thread per processor, assigned in attach
        order; interleaved machines place round-robin unless pinned.
        """
        if self.event_mode:
            idx = len(self.threads)
            if idx >= self.p:
                raise ConfigurationError(
                    f"all {self.p} processors already have programs"
                )
            t = SimThread(tid=idx, gen=gen, proc=idx)
            t.mstate = self.model.thread_state()
            self.threads.append(t)
            self._live += 1
            self._setup_hash.update(b"T%d" % idx)
            return t
        if proc is None:
            proc = self._next_proc
            self._next_proc = (self._next_proc + 1) % self.p
        if not 0 <= proc < self.p:
            raise ConfigurationError(f"proc {proc} out of range")
        pr = self.procs[proc]
        if pr.live >= self.model.threads_per_proc:
            raise ConfigurationError(
                f"processor {proc} already has {self.model.threads_per_proc} streams;"
                " use FA self-scheduling instead of more threads"
            )
        t = SimThread(tid=len(self.threads), gen=gen, proc=proc)
        self.threads.append(t)
        pr.ready.append(t)
        pr.live += 1
        self._live += 1
        self._setup_hash.update(b"T%d" % proc)
        return t

    def register_barrier(self, barrier_id: str, count: int) -> None:
        """Declare that ``count`` threads will meet at ``barrier_id``."""
        if count < 1:
            raise ConfigurationError("barrier count must be >= 1")
        self._barriers[barrier_id] = _Barrier(need=count)
        self._setup_hash.update(f"B{barrier_id}:{count}".encode())
        self.bus.register_barrier(barrier_id, count)

    def set_counter(self, addr: int, value: int = 0) -> None:
        """Initialize a fetch-add cell (delegates to the model)."""
        self.model.init_counter(addr, value)
        self._setup_hash.update(f"C{addr}:{value}".encode())
        self.bus.init_counter(addr)

    def set_full(self, addr: int, value=0) -> None:
        """Pre-set a full/empty word to Full (delegates to the model)."""
        self.model.init_full(addr, value)
        self._setup_hash.update(f"F{addr}:{value!r}".encode())
        self.bus.init_full(addr)

    def note_setup(self, label: str) -> None:
        """Fold an external setup declaration into :attr:`setup_digest`.

        Used by machinery that configures the *model* directly (e.g. the
        shard runtime registering cross-partition barriers or value
        words on the machine) so such setup still invalidates stale
        checkpoints the way kernel-registered setup does.
        """
        self._setup_hash.update(label.encode())

    # -- scheduling helpers used by model handlers -------------------------------

    def block_until(self, t: SimThread, when: int) -> None:
        """Park ``t`` until cycle ``when`` (interleaved machines)."""
        t.state = BLOCKED
        t.wake_at = when
        heapq.heappush(self.procs[t.proc].wake, (when, t.tid, t))

    # -- checkpoint / restore -----------------------------------------------------

    @property
    def record(self) -> bool:
        """True when the kernel logs generator resumes for checkpointing."""
        return self._rec_tids is not None

    @property
    def setup_digest(self) -> str:
        """Fingerprint of the attached workload (threads, barriers,
        counters, full/empty words, machine config).  A checkpoint only
        restores onto a kernel with the same digest."""
        return self._setup_hash.hexdigest()

    def resume_log(self) -> dict:
        """The recorded resume log: the global order of generator resumes
        (``tids``) plus the sparse non-None sent values (``vals``)."""
        rec = self._rec_tids
        if rec is None:
            raise CheckpointError(
                "kernel is not recording; construct it with record=True"
            )
        # Up to 256 threads every tid fits in a byte.  bytearray() packs
        # the list several times faster than np.asarray, and the log (most
        # of an artifact's bytes) shrinks to a quarter before compression;
        # both keep bench_checkpoint.py under its 5 % gate.
        if len(self.threads) <= 256:
            tids = np.frombuffer(bytearray(rec), dtype=np.uint8)
        else:
            tids = np.asarray(rec, dtype=np.int32)
        return {"tids": tids, "vals": list(self._rec_vals)}

    def snapshot(self, progress: dict) -> dict:
        """Serializable state of the run at a scheduling boundary.

        ``progress`` locates the boundary on the run's timeline
        (``{"steps": n}`` for event machines, ``{"cycle": c,
        "last_issue": i}`` for interleaved ones).  The snapshot carries
        everything needed to continue byte-identically: per-thread
        scheduling state, machine-owned memory/timing state, barrier and
        phase bookkeeping, and the resume log that lets a fresh process
        rebuild the (unpicklable) generators by replaying the workload.

        Heap-shaped structures are *derived* on restore rather than
        stored: every event-heap entry equals ``(t.time, t.tid)`` of a
        READY thread, and every interleaved wake-heap entry equals
        ``(t.wake_at, t.tid)`` of a BLOCKED thread, so only orders that
        carry information (per-proc ready rotation, barrier arrival,
        model FIFO queues) are serialized explicitly.
        """
        model = self.model
        if self._rec_tids is None:
            raise CheckpointError(
                "cannot snapshot: kernel is not recording (record=True)"
            )
        if not model.checkpointable:
            raise CheckpointError(
                f"machine {model.kind!r} does not implement the "
                "serializable-state contract (to_state/from_state)"
            )
        threads = []
        for t in self.threads:
            st = t.to_state()
            st["mstate"] = model.pack_thread_state(t.mstate)
            threads.append(st)
        return {
            "version": CHECKPOINT_STATE_VERSION,
            "kind": model.kind,
            "scheduling": model.scheduling,
            "p": self.p,
            "setup": self.setup_digest,
            "machine_state_version": model.state_version,
            "name": self._run_name,
            "progress": dict(progress),
            "threads": threads,
            "procs": None
            if self.event_mode
            else [
                {
                    "ready": [t.tid for t in pr.ready],
                    "issued": pr.issued,
                    "live": pr.live,
                }
                for pr in self.procs
            ],
            "live": self._live,
            "next_proc": self._next_proc,
            "last_issue": self._last_issue,
            "barriers": {
                bid: {"need": b.need, "waiting": [w.tid for w in b.waiting]}
                for bid, b in self._barriers.items()
            },
            "op_counts": dict(self._op_counts),
            "phase_snaps": [(s[0], s[1], s[2], dict(s[3])) for s in self._phase_snaps],
            "barrier_wait_per_proc": list(self.barrier_wait_per_proc),
            "barrier_episodes": self.barrier_episodes,
            "barrier_stats": {k: list(v) for k, v in self.barrier_stats.items()},
            "window_stats": dict(self._window_stats),
            "log": self.resume_log(),
            "model": model.to_state(),
        }

    def replay_log(self, log: dict) -> list:
        """Replay a resume log against freshly attached programs.

        Re-runs every generator in the exact global order of the
        original run — reproducing all Python-side effects (shared
        array writes, local variables) without simulating any cycles —
        and returns the last op each thread yielded (None once its
        generator finished).  When the kernel is recording, the replayed
        entries are appended to its own log so a later snapshot carries
        the full history from cycle 0.
        """
        threads = self.threads
        vals = dict(log["vals"])
        rec = self._rec_tids
        rec_vals = self._rec_vals
        last_ops = [None] * len(threads)
        for i, tid in enumerate(log["tids"]):
            tid = int(tid)
            t = threads[tid]
            v = vals.get(i)
            try:
                last_ops[tid] = t.gen.send(v)
            except StopIteration:
                last_ops[tid] = None
            if rec is not None:
                rec.append(tid)
                if v is not None:
                    rec_vals.append((len(rec) - 1, v))
        return last_ops

    def resume(self, state: dict) -> None:
        """Restore a :meth:`snapshot` onto this kernel.

        Must be called after the workload attached its programs (the
        same setup the checkpoint was taken from — enforced via the
        setup digest) and before :meth:`run`; the next ``run()`` then
        continues from the snapshot's boundary and produces a report and
        event stream byte-identical to the uninterrupted run.  All
        validation happens before any state is touched, so a raised
        :class:`~repro.errors.CheckpointError` leaves the kernel intact.
        """
        model = self.model
        if not isinstance(state, dict) or state.get("version") != CHECKPOINT_STATE_VERSION:
            raise CheckpointError(
                f"unsupported kernel-state version {state.get('version') if isinstance(state, dict) else state!r}"
                f" (this kernel writes version {CHECKPOINT_STATE_VERSION})"
            )
        if state.get("kind") != model.kind or state.get("scheduling") != model.scheduling:
            raise CheckpointError(
                f"checkpoint was taken on machine {state.get('kind')!r}"
                f" ({state.get('scheduling')!r}); this kernel runs"
                f" {model.kind!r} ({model.scheduling!r})"
            )
        if state.get("p") != self.p:
            raise CheckpointError(
                f"checkpoint has p={state.get('p')} but this kernel has p={self.p}"
            )
        if state.get("machine_state_version") != model.state_version:
            raise CheckpointError(
                f"machine-state version {state.get('machine_state_version')!r} !="
                f" {model.state_version} for {model.kind!r}"
            )
        if state.get("setup") != self.setup_digest:
            raise CheckpointError(
                "checkpoint does not match this kernel's workload setup "
                "(programs, barriers, counters, or machine config differ); "
                "nothing was restored"
            )
        if len(state["threads"]) != len(self.threads):
            raise CheckpointError(
                f"checkpoint has {len(state['threads'])} threads but"
                f" {len(self.threads)} programs are attached"
            )
        if self._resume_ctx is not None:
            raise CheckpointError("kernel already has a pending resume")

        # Resuming implies recording: further checkpoints must carry the
        # full history, and replay below re-records the replayed prefix.
        self._rec_tids = []
        self._rec_vals = []
        last_ops = self.replay_log(state["log"])

        threads = self.threads
        for t, st in zip(threads, state["threads"], strict=False):
            t.from_state(st)
            t.mstate = model.unpack_thread_state(st["mstate"])
            if st["in_block"]:
                op = last_ops[t.tid]
                ok = (
                    op is not None
                    and op[0] == RUN_BLOCK
                    and op[1].n == st["block_len"]
                    and 0 <= st["fbpos"] < op[1].n
                )
                if not ok:
                    raise CheckpointError(
                        f"cannot rebind tid {t.tid}'s active op block: replay"
                        " did not end on a matching run_block"
                    )
                t.fblock = op[1]
            else:
                t.fblock = None
        self._live = state["live"]
        self._next_proc = state["next_proc"]
        self._last_issue = state["last_issue"]
        self._barriers = {
            bid: _Barrier(need=b["need"], waiting=[threads[tid] for tid in b["waiting"]])
            for bid, b in state["barriers"].items()
        }
        self._op_counts = dict(state["op_counts"])
        self._phase_snaps = [(s[0], s[1], s[2], dict(s[3])) for s in state["phase_snaps"]]
        self.barrier_wait_per_proc = list(state["barrier_wait_per_proc"])
        self.barrier_episodes = state["barrier_episodes"]
        self.barrier_stats = {k: list(v) for k, v in state["barrier_stats"].items()}
        self._window_stats = dict(state["window_stats"])
        if not self.event_mode:
            for pi, (pr, ps) in enumerate(zip(self.procs, state["procs"], strict=False)):
                pr.issued = ps["issued"]
                pr.live = ps["live"]
                pr.ready = deque(threads[tid] for tid in ps["ready"])
                pr.wake = [
                    (t.wake_at, t.tid, t)
                    for t in threads
                    if t.proc == pi and t.state == BLOCKED
                ]
                heapq.heapify(pr.wake)
        model.from_state(state["model"], self)
        self._resume_ctx = {
            "name": state["name"],
            "progress": dict(state["progress"]),
        }

    def _emit_checkpoint(self, sink, progress: dict) -> None:
        """Snapshot at a boundary and hand it to ``sink``; a truthy
        return pauses the run (:class:`~repro.errors.RunPaused`)."""
        state = self.snapshot(progress)
        if sink(state):
            raise RunPaused(f"run paused at {progress}", state=state)

    # -- instrumentation plumbing ------------------------------------------------

    @property
    def window_stats(self) -> dict:
        """Fast-tier fast-forward accounting: windows fired and ops
        they bulk-executed.  Diagnostic only — never in the report."""
        return dict(self._window_stats)

    def _fidelity_demanded(self) -> bool:
        bus = self.bus
        return any(bus.listeners(e) is not None for e in _FIDELITY_EVENTS)

    def _refresh_listeners(self):
        """Re-read listener tuples after a mid-run ``HookBus.add``.

        Updates the shortcuts the model handlers read and returns the
        ``(on_op, on_phase)`` tuples the run loops cache locally.  A
        hook attached mid-run starts receiving events at the next
        scheduling boundary (next cycle for interleaved machines, next
        step for event machines).
        """
        bus = self.bus
        self._h_span = bus.listeners("on_op_span")
        self._h_sync = bus.listeners("on_sync")
        self._h_release = bus.listeners("on_barrier_release")
        return bus.listeners("on_op"), bus.listeners("on_phase")

    # -- run --------------------------------------------------------------------

    def run(
        self,
        name: str = "phase",
        budget: int | None = None,
        *,
        tier: str | None = None,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
        service=None,
    ) -> SimReport:
        """Run every thread to completion; return measurements.

        ``budget`` bounds the run (scheduling steps for event machines,
        cycles for interleaved ones); exceeding it raises
        :class:`~repro.errors.WatchdogExceeded` carrying the blocked
        inventory and the phase slices closed at the abort point (plus a
        resumable post-mortem checkpoint when the kernel is recording).

        ``tier`` overrides the kernel's configured execution tier for
        this run (see the constructor); both tiers produce
        byte-identical reports — the fast one merely skips the
        interpreter where nothing observable happens.

        ``checkpoint_every`` takes a :meth:`snapshot` at the first
        scheduling boundary at or past every multiple of that many
        steps/cycles and hands it to ``checkpoint_sink``; a truthy sink
        return pauses the run via :class:`~repro.errors.RunPaused`.
        After :meth:`resume`, the run continues from the restored
        boundary (the passed ``name`` is ignored in favour of the
        checkpointed one, and ``on_run_start`` is not re-emitted, so the
        combined event stream matches an uninterrupted run).

        ``service`` (interleaved machines only) is a per-cycle callback
        ``service(cycle) -> next_cycle`` invoked before any issue at
        every cycle at or past the cycle it last returned (initially
        cycle 0); idle fast-forward never jumps over a service point,
        and when no local wake source exists the kernel defers to the
        service instead of declaring deadlock — the service either
        wakes threads (external events), advances the clock, or raises.
        This is the hook the sharded coordinator protocol drives worker
        kernels through (:mod:`repro.sim.shard`).  The returned cycle
        must be strictly greater than the argument.
        """
        if budget is None:
            budget = self.model.default_budget
        if service is not None and self.event_mode:
            raise ConfigurationError(
                "service callbacks require an interleaved machine (event-"
                "discipline threads advance in local time, so there is no "
                "global cycle to service)"
            )
        if self.event_mode and len(self.threads) != self.p:
            raise ConfigurationError(
                f"{len(self.threads)} programs attached but machine has p={self.p}"
            )
        if tier is None:
            tier = self.tier
        elif tier not in TIERS:
            raise ConfigurationError(f"unknown tier {tier!r}; expected one of {TIERS}")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigurationError("checkpoint_every must be >= 1")
            if checkpoint_sink is None:
                raise ConfigurationError(
                    "checkpoint_every requires a checkpoint_sink"
                )
            if self._rec_tids is None:
                raise CheckpointError(
                    "checkpointing requires a recording kernel (record=True)"
                )
            if not self.model.checkpointable:
                raise CheckpointError(
                    f"machine {self.model.kind!r} does not implement the "
                    "serializable-state contract (to_state/from_state)"
                )
        bus = self.bus
        self._h_span = bus.listeners("on_op_span")
        self._h_sync = bus.listeners("on_sync")
        self._h_release = bus.listeners("on_barrier_release")
        fidelity = self._fidelity_demanded()
        profile = self.model.vector_profile()
        if tier == "vector":
            if profile is None:
                raise ConfigurationError(
                    f"tier='vector' requested but the {self.model.kind!r} machine "
                    "publishes no vector profile (per-op semantics, e.g. bank "
                    "queueing, admit no closed-form fast-forward)"
                )
            if fidelity:
                raise ConfigurationError(
                    "tier='vector' conflicts with per-op instrumentation "
                    "(an on_op/on_op_span/on_sync subscriber — a concurrency "
                    "checker or an op-level tracer); use tier='auto' or "
                    "'interpreted'"
                )
            fast = True
        elif tier == "interpreted":
            fast = False
        else:  # auto
            fast = profile is not None and not fidelity
        self.tier_used = "vector" if fast else "interpreted"
        self.tier_demoted = False
        ctx = self._resume_ctx
        if ctx is not None:
            # continuing a checkpointed run: keep its name and do not
            # re-emit on_run_start — the original run already did, so
            # prefix + continuation equals the uninterrupted event stream
            name = ctx["name"]
        self._run_name = name
        if ctx is None:
            h_start = bus.listeners("on_run_start")
            if h_start is not None:
                for fn in h_start:
                    fn(name, self.p)
        try:
            if self.event_mode:
                report = self._run_event(
                    name, budget, fast, checkpoint_every, checkpoint_sink, ctx
                )
            else:
                report = self._run_interleaved(
                    name, budget, fast, checkpoint_every, checkpoint_sink, ctx,
                    service,
                )
        finally:
            self._resume_ctx = None
        h_end = bus.listeners("end_run")
        if h_end is not None:
            for fn in h_end:
                fn(report)
        return report

    # -- event discipline (one thread per processor, local time) ----------------

    def _run_event(
        self,
        name: str,
        budget: int,
        fast: bool = False,
        ckpt_every: int | None = None,
        ckpt_sink=None,
        ctx: dict | None = None,
    ) -> SimReport:
        model = self.model
        threads = self.threads
        p = self.p
        dispatch = model.handlers(self)
        dispatch_get = dispatch.get
        barrier_cost = model.barrier_release_cost()
        implicit = model.implicit_barriers
        barriers = self._barriers
        barrier_wait = self.barrier_wait_per_proc
        op_counts = self._op_counts
        if ctx is None:
            snaps = self._phase_snaps = [
                (0.0, name, self._issued_total(), dict(op_counts))
            ]
            steps = 0
        else:  # resumed: phase snaps were restored, continue the count
            snaps = self._phase_snaps
            steps = ctx["progress"]["steps"]
        bus = self.bus
        ver = bus.version
        h_op = bus.listeners("on_op")
        h_phase = bus.listeners("on_phase")
        h_span = self._h_span
        h_release = self._h_release
        rec = self._rec_tids
        rec_append = rec.append if rec is not None else None
        rec_vals = self._rec_vals
        heappush, heappop = heapq.heappush, heapq.heappop
        # The heap is fully derivable: it holds exactly one (t.time, tid)
        # entry per READY thread — identical to the historical
        # [(0.0, i) for i in range(p)] on a fresh start, and exactly the
        # restored schedule after a resume.
        heap: list[tuple[float, int]] = [
            (t.time, t.tid) for t in threads if t.state == READY
        ]
        heapq.heapify(heap)
        last_mark = snaps[-1][0]
        next_ckpt = (
            (steps // ckpt_every + 1) * ckpt_every if ckpt_every is not None else None
        )

        # One pass of the inner loop is one scheduling step — identical
        # whether the thread was re-popped from the heap (interpreted)
        # or continued inline (fast superblock: when the thread's next
        # event still precedes everything on the heap, push+pop would
        # return it immediately, so the fast tier skips the heap churn;
        # the `(time, idx)` tie-break reproduces the heap order exactly).
        while heap:
            if next_ckpt is not None and steps >= next_ckpt:
                self._emit_checkpoint(ckpt_sink, {"steps": steps})
                next_ckpt = (steps // ckpt_every + 1) * ckpt_every
            time, idx = heappop(heap)
            t = threads[idx]
            inline = True
            while inline:
                inline = False
                steps += 1
                if steps > budget:
                    # the aborted step was never executed: the popped
                    # thread is still READY at `time`, so the snapshot's
                    # derived heap re-includes it and a resume with a
                    # larger budget re-attempts exactly this step
                    self._abort_watchdog(
                        budget,
                        f"exceeded max_ops={budget}",
                        time,
                        progress={"steps": steps - 1},
                    )
                if bus.version != ver:
                    ver = bus.version
                    h_op, h_phase = self._refresh_listeners()
                    h_span = self._h_span
                    h_release = self._h_release
                    if fast and (h_op is not None or h_span is not None
                                 or self._h_sync is not None):
                        fast = False
                        self.tier_demoted = True
                blk = t.fblock
                if blk is not None:
                    op = blk.ops[t.fbpos]
                    t.fbpos += 1
                    if t.fbpos == blk.n:
                        t.fblock = None
                else:
                    sent = t.pending_value
                    try:
                        op = t.gen.send(sent)
                    except StopIteration:
                        if rec_append is not None:  # replay must re-run the tail
                            rec_append(idx)
                            if sent is not None:
                                rec_vals.append((len(rec) - 1, sent))
                        t.state = DONE
                        break
                    t.pending_value = None
                    if rec_append is not None:
                        rec_append(idx)
                        if sent is not None:
                            rec_vals.append((len(rec) - 1, sent))
                tag = op[0]
                if tag == PHASE:  # zero-cost marker: no slot, no time
                    if h_phase is not None:
                        for fn in h_phase:
                            fn(idx, op[1])
                    if time > last_mark:
                        last_mark = time
                    snaps.append(
                        (last_mark, op[1], self._issued_total(), dict(op_counts))
                    )
                    if fast and not (heap and heap[0] < (time, idx)):
                        inline = True
                        continue
                    heappush(heap, (time, idx))
                    break
                if tag == RUN_BLOCK:  # zero-cost macro: expand in place
                    b = op[1]
                    if b.n:
                        t.fblock = b
                        t.fbpos = 0
                    if fast and not (heap and heap[0] < (time, idx)):
                        inline = True
                        continue
                    heappush(heap, (time, idx))
                    break
                t.issued += 1
                op_counts[tag] = op_counts.get(tag, 0) + 1
                if h_op is not None:
                    for fn in h_op:
                        fn(idx, op)
                if tag == BARRIER:
                    bid = op[1]
                    b = barriers.get(bid)
                    if b is None:
                        if implicit:
                            b = barriers[bid] = _Barrier(need=p)
                        else:
                            raise SimulationError(
                                f"barrier {bid!r} was never registered"
                            )
                    t.state = WAIT_BARRIER
                    t.wait_key = bid
                    t.time = time
                    b.waiting.append(t)
                    if len(b.waiting) == b.need:
                        if h_release is not None:
                            tids = [w.tid for w in b.waiting]
                            for fn in h_release:
                                fn(bid, tids)
                        release = max(w.time for w in b.waiting) + barrier_cost
                        self.barrier_episodes += 1
                        for w in b.waiting:
                            arrival = w.time
                            barrier_wait[w.tid] += release - arrival
                            if h_span is not None:
                                for fn in h_span:
                                    fn(f"B:{bid}", arrival, release, w.tid, 0, None)
                            w.time = release
                            w.state = READY
                            w.wait_key = None
                            heappush(heap, (release, w.tid))
                        b.waiting = []
                    break  # pushed (or parked) above
                handler = dispatch_get(tag)
                if handler is None:
                    raise SimulationError(
                        f"unknown opcode {tag!r} on {model.kind.upper()} "
                        f"processor {idx}"
                    )
                end = handler(t, op, time)
                t.time = end
                if h_span is not None:
                    args = {"addr": op[1]} if tag != COMPUTE else {}
                    for fn in h_span:
                        fn(tag, time, end, idx, 0, args)
                if fast and not (heap and heap[0] < (end, idx)):
                    time = end
                    inline = True
                    continue
                heappush(heap, (end, idx))

        parked = [t.tid for t in threads if t.state == WAIT_BARRIER]
        if parked:
            rows = self._blocked_rows()
            h_blocked = self.bus.listeners("on_blocked")
            if h_blocked is not None:
                for fn in h_blocked:
                    fn(rows)
            raise DeadlockError(
                f"processors {parked} parked at barriers no one else reached"
            )

        cycles = max((t.time for t in threads), default=0.0)
        total_cycles = int(round(cycles))
        issued = np.array([t.issued for t in threads], dtype=np.int64)
        return SimReport(
            name=name,
            p=p,
            cycles=total_cycles,
            issued=issued,
            clock_hz=model.clock_hz,
            op_counts=dict(op_counts),
            detail=model.report_detail(self),
            phases=self._close_slices(total_cycles),
        )

    # -- interleaved discipline (streams, one issue per proc per cycle) ---------

    def _run_interleaved(
        self,
        name: str,
        budget: int,
        fast: bool = False,
        ckpt_every: int | None = None,
        ckpt_sink=None,
        ctx: dict | None = None,
        service=None,
    ) -> SimReport:
        model = self.model
        procs = self.procs
        dispatch = model.handlers(self)
        dispatch_get = dispatch.get
        dispatch[BARRIER] = None  # kernel-owned; keep models honest
        lookahead = model.lookahead
        op_counts = self._op_counts
        if ctx is None:
            snaps = self._phase_snaps = [
                (0, name, self._issued_total(), dict(op_counts))
            ]
            cycle = 0
            last_issue = -1
        else:  # resumed: phase snaps were restored, continue the clock
            snaps = self._phase_snaps
            cycle = ctx["progress"]["cycle"]
            last_issue = ctx["progress"]["last_issue"]
        bus = self.bus
        ver = bus.version
        h_op = bus.listeners("on_op")
        h_phase = bus.listeners("on_phase")
        rec = self._rec_tids
        rec_append = rec.append if rec is not None else None
        rec_vals = self._rec_vals
        heappop = heapq.heappop
        next_ckpt = (
            (cycle // ckpt_every + 1) * ckpt_every if ckpt_every is not None else None
        )
        if fast:
            from .fastpath import try_ld_window
        else:
            try_ld_window = None
        # Live streams holding an active op block.  The window planner
        # declines whenever some live stream is outside a block, so it is
        # consulted only while this equals ``self._live``.  Counted here
        # (covering resume) and after each window; the loop adjusts it
        # wherever it binds or exhausts a block.
        threads = self.threads
        in_block = sum(t.fblock is not None for t in threads)
        # service points: the callback runs before any issue at every
        # cycle >= svc_next; it returns the next cycle it needs control.
        # A model handler may pull the next point forward mid-window by
        # setting ``service_wake`` (e.g. a cross-worker barrier arrival
        # whose release could land before the granted horizon).
        svc_next = cycle if service is not None else None
        self.service_wake = None

        while self._live > 0:
            if svc_next is not None:
                wake = self.service_wake
                if wake is not None:
                    if wake < svc_next:
                        svc_next = wake
                    self.service_wake = None
                if cycle >= svc_next:
                    self._last_issue = last_issue  # snapshots inside service
                    svc_next = service(cycle)
                    if svc_next <= cycle:
                        raise SimulationError(
                            f"service returned non-advancing cycle {svc_next}"
                            f" at cycle {cycle}"
                        )
            if next_ckpt is not None and cycle >= next_ckpt:
                self._emit_checkpoint(
                    ckpt_sink, {"cycle": cycle, "last_issue": last_issue}
                )
                next_ckpt = (cycle // ckpt_every + 1) * ckpt_every
            if cycle > budget:
                self._last_issue = last_issue
                # cycle was never executed: a resume with a larger
                # budget re-enters the loop at exactly this cycle
                self._abort_watchdog(
                    budget,
                    f"exceeded max_cycles={budget}",
                    cycle,
                    progress={"cycle": cycle, "last_issue": last_issue},
                )
            if bus.version != ver:  # a hook attached mid-run
                ver = bus.version
                h_op, h_phase = self._refresh_listeners()
                if fast and (h_op is not None or self._h_span is not None
                             or self._h_sync is not None):
                    fast = False  # per-op fidelity demanded: demote
                    self.tier_demoted = True
            if fast and in_block == self._live:
                # fast-forward the pure-LD regime in closed form; the
                # window ends (or never opens) exactly where per-op
                # execution must resume.  A pending service point caps
                # the window so no external event is jumped over.
                w_budget = budget if svc_next is None else min(budget, svc_next - 1)
                w = try_ld_window(self, cycle, w_budget)
                if w is not None:
                    cycle, last_issue = w
                    in_block = sum(t.fblock is not None for t in threads)
                    continue
            any_ready = False
            for proc in procs:
                wake = proc.wake
                while wake and wake[0][0] <= cycle:
                    _, _, t = heappop(wake)
                    t.state = READY
                    proc.ready.append(t)
                if not proc.ready:
                    continue
                any_ready = True
                t = proc.ready.popleft()
                # ---- issue one instruction from t at cycle ----
                t.drain_completed(cycle)
                if not t.outstanding:
                    t.lookahead_credit = lookahead
                if t.compute_remaining > 0:  # burst continuation: no dispatch
                    t.compute_remaining -= 1
                    t.issued += 1
                    proc.issued += 1
                    if cycle > last_issue:
                        last_issue = cycle
                    op_counts[COMPUTE] = op_counts.get(COMPUTE, 0) + 1
                    proc.ready.append(t)
                    continue
                blk = t.fblock
                if blk is not None:  # inside a VR run: ops are static data
                    op = blk.ops[t.fbpos]
                    t.fbpos += 1
                    if t.fbpos == blk.n:
                        t.fblock = None
                        in_block -= 1
                else:
                    sent = t.pending_value
                    try:
                        op = t.gen.send(sent)
                    except StopIteration:
                        if rec_append is not None:  # replay must re-run the tail
                            rec_append(t.tid)
                            if sent is not None:
                                rec_vals.append((len(rec) - 1, sent))
                        t.state = DONE
                        proc.live -= 1
                        self._live -= 1
                        continue
                    t.pending_value = None
                    if rec_append is not None:
                        rec_append(t.tid)
                        if sent is not None:
                            rec_vals.append((len(rec) - 1, sent))
                    while True:  # zero-cost pseudo-ops: no slot, no cycle
                        tag0 = op[0]
                        if tag0 == PHASE:
                            snaps.append(
                                (cycle, op[1], self._issued_total(), dict(op_counts))
                            )
                            if h_phase is not None:
                                for fn in h_phase:
                                    fn(t.tid, op[1])
                        elif tag0 == RUN_BLOCK:
                            b = op[1]
                            if b.n:  # first block op issues in this slot
                                if b.n > 1:
                                    t.fblock = b
                                    t.fbpos = 1
                                    in_block += 1
                                op = b.ops[0]
                                break
                        else:
                            break
                        try:
                            op = t.gen.send(None)
                        except StopIteration:
                            if rec_append is not None:
                                rec_append(t.tid)
                            t.state = DONE
                            proc.live -= 1
                            self._live -= 1
                            op = None
                            break
                        if rec_append is not None:
                            rec_append(t.tid)
                    if op is None:
                        continue
                tag = op[0]
                if h_op is not None:
                    for fn in h_op:
                        fn(t.tid, op)
                t.issued += 1
                proc.issued += 1
                if cycle > last_issue:
                    last_issue = cycle
                op_counts[tag] = op_counts.get(tag, 0) + 1
                if tag == BARRIER:
                    self._interleaved_barrier(t, op[1], cycle)
                    continue
                handler = dispatch_get(tag)
                if handler is None:
                    raise SimulationError(f"unknown opcode {tag!r} from tid {t.tid}")
                handler(proc, t, op, cycle)
            if any_ready:
                cycle += 1
            else:
                nxt = min(
                    (proc.wake[0][0] for proc in procs if proc.wake),
                    default=None,
                )
                if svc_next is not None:
                    # never jump past a service point; with no local wake
                    # source the service is the wake source (external
                    # events), so deadlock diagnosis is deferred to it
                    tgt = svc_next if nxt is None else min(nxt, svc_next)
                    cycle = max(cycle + 1, tgt)
                    continue
                if nxt is None:
                    if self._live > 0:
                        self._last_issue = last_issue
                        self._raise_deadlock()
                    break
                cycle = max(cycle + 1, nxt)

        self._last_issue = last_issue
        issued = np.array([proc.issued for proc in procs], dtype=np.int64)
        total_cycles = last_issue + 1  # span up to the final real issue
        return SimReport(
            name=name,
            p=self.p,
            cycles=total_cycles,
            issued=issued,
            clock_hz=model.clock_hz,
            op_counts=dict(op_counts),
            detail=model.report_detail(self),
            phases=self._close_slices(total_cycles),
        )

    def _interleaved_barrier(self, t: SimThread, bid: str, cycle: int) -> None:
        if self.model.owns_barriers:
            self.model.barrier_op(self, t, bid, cycle)
            return
        b = self._barriers.get(bid)
        if b is None:
            if self.model.implicit_barriers:
                b = self._barriers[bid] = _Barrier(need=self.p)
            else:
                raise SimulationError(f"barrier {bid!r} was never registered")
        t.state = WAIT_BARRIER
        t.wait_since = cycle
        t.wait_key = bid
        b.waiting.append(t)
        if len(b.waiting) == b.need:
            h_release = self._h_release
            if h_release is not None:
                tids = [w.tid for w in b.waiting]
                for fn in h_release:
                    fn(bid, tids)
            release = cycle + self.model.barrier_release_cost()
            stats = self.barrier_stats.get(bid)
            if stats is None:
                stats = self.barrier_stats[bid] = [0, 0, 0]
            h_span = self._h_span
            for w in b.waiting:
                wait = release - w.wait_since
                stats[0] += 1
                stats[1] += wait
                if wait > stats[2]:
                    stats[2] = wait
                if h_span is not None:
                    for fn in h_span:
                        fn(f"B:{bid}", w.wait_since, release, w.proc, w.tid, None)
                w.wait_key = None
                self.block_until(w, release)
            b.waiting = []

    # -- diagnosis --------------------------------------------------------------

    def _blocked_rows(self) -> list:
        """Structured rows describing every stuck thread (checker schema)."""
        rows = self.model.blocked_rows()
        if self.event_mode:
            for t in self.threads:
                if t.state == WAIT_BARRIER:
                    b = self._barriers[t.wait_key]
                    rows.append(
                        {
                            "tid": t.tid,
                            "state": WAIT_BARRIER,
                            "barrier": t.wait_key,
                            "arrived": len(b.waiting),
                            "need": b.need,
                        }
                    )
        else:
            for bid, b in self._barriers.items():
                for w in b.waiting:
                    rows.append(
                        {
                            "tid": w.tid,
                            "state": WAIT_BARRIER,
                            "barrier": bid,
                            "arrived": len(b.waiting),
                            "need": b.need,
                        }
                    )
        return rows

    def _raise_deadlock(self) -> None:
        stuck = [t for t in self.threads if t.state not in (DONE, READY)]
        rows = self._blocked_rows()
        h_blocked = self.bus.listeners("on_blocked")
        if h_blocked is not None:
            for fn in h_blocked:
                fn(rows)
        inventory = ", ".join(f"tid{t.tid}:{t.state}" for t in stuck[:10])
        raise DeadlockError(
            f"{len(stuck)} threads blocked with no wake source ({inventory} …)"
        )

    def _abort_watchdog(self, budget: int, message: str, now, progress=None) -> None:
        """Watchdog trip: close the open phase slice at the abort point
        and raise with the blocked inventory attached — plus, when the
        kernel is recording on a checkpointable machine, a post-mortem
        snapshot so the run can be resumed with a larger budget instead
        of rerun from cycle 0."""
        ckpt = None
        if (
            progress is not None
            and self._rec_tids is not None
            and self.model.checkpointable
        ):
            try:
                ckpt = self.snapshot(progress)
            except CheckpointError:  # pragma: no cover - diagnostic best-effort
                ckpt = None
        raise WatchdogExceeded(
            message,
            budget=budget,
            blocked=self._blocked_rows(),
            phases=self._close_slices(now),
            checkpoint=ckpt,
        )

    # -- phases -----------------------------------------------------------------

    def _issued_total(self) -> int:
        if self.event_mode:
            return sum(t.issued for t in self.threads)
        return sum(proc.issued for proc in self.procs)

    def _close_slices(self, total_cycles) -> list:
        """Turn the phase snapshots into a partition of ``[0, total_cycles)``.

        Boundaries are clamped into ``[0, total_cycles]`` (event-mode
        marks carry fractional processor-local times and the report's
        total is rounded; an aborted run's marks may sit past the abort
        point) so slice widths telescope to the reported total exactly
        and the final, possibly still-open slice is closed at the end
        of the run rather than producing a negative-width slice.
        """
        total = float(total_cycles)
        final = (total, None, self._issued_total(), dict(self._op_counts))
        snaps = self._phase_snaps + [final]
        slices = []
        for (t0, label, i0, oc0), (t1, _, i1, oc1) in zip(snaps, snaps[1:], strict=False):
            t0 = min(max(t0, 0.0), total)
            t1 = min(max(t1, 0.0), total)
            if t1 == t0 and i1 == i0 and len(snaps) > 2:
                continue  # zero-width slice from a marker at a boundary
            counts = {k: v - oc0.get(k, 0) for k, v in oc1.items() if v != oc0.get(k, 0)}
            slices.append(
                PhaseSlice(name=label, start=t0, end=t1, issued=i1 - i0, op_counts=counts)
            )
        return slices
