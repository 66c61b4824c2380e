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
    per-cycle loop and large programs simulate quickly).  The loop
    takes each next thread with one ``heappushpop``.
``"interleaved"``
    Many streams per processor, one instruction issued per processor
    per cycle from some ready stream, round-robin, with fast-forward
    over globally idle spans (the MTA's fair hardware scheduler).

:class:`Engine` is the one facade over a kernel and its model.  A new
machine needs no edits here: a :class:`MachineModel` subclass, an
:class:`Engine` subclass that sets ``machine_class``, and one
:func:`repro.backends.register_machine` call.  See ``docs/SIMULATION.md``.
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
from .hooks import HookBus
from .isa import BARRIER, COMPUTE, PHASE, RUN_BLOCK
from .stats import PhaseSlice, SimReport
from .thread import BLOCKED, DONE, READY, WAIT_BARRIER, SimThread

__all__ = [
    "Engine",
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
#: "Execution tiers").  ``auto`` fast-forwards LD windows whenever the
#: machine sets :attr:`MachineModel.fast_forward` and no hook demands
#: per-op fidelity (``HookBus.per_op``: a checker or an op-level
#: tracer); ``interpreted`` never does.
TIERS = ("auto", "interpreted")


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
    threads_per_proc:
        Stream capacity per processor (interleaved machines); event
        machines always run exactly one thread per processor.
    lookahead:
        Instructions a stream may issue past an outstanding memory op
        before it must wait (interleaved machines; the kernel resets
        each stream's credit whenever it has no outstanding refs).
    fast_forward:
        If True, ``tier="auto"`` may fast-forward pure dependent-load
        windows in closed form (:mod:`repro.sim.fastpath`), which needs
        interleaved issue and one memory latency for every reference.
    """

    kind = "machine"
    scheduling = EVENT
    clock_hz = 1e9
    default_budget = 500_000_000
    implicit_barriers = False
    threads_per_proc = 1
    lookahead = 0
    fast_forward = False

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

        ``BARRIER``, ``PHASE`` and ``RUN_BLOCK`` are the kernel's own
        tags and have no entry.
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

    def report_detail(self, kernel: "SimKernel") -> dict:
        """The machine's ``SimReport.detail`` dict (contention counters)."""
        return {}

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
    hooks:
        The run's instrumentation: objects implementing any subset of
        :data:`~repro.sim.hooks.HOOK_EVENTS`, such as
        ``TracerHook(tracer)`` or ``CheckerHook(checker)``.  The bus is
        fixed here; nothing attaches later.
    tier:
        Execution tier (one of :data:`TIERS`): ``"auto"`` (default)
        fast-forwards LD windows whenever the machine sets
        ``fast_forward`` and no hook demands per-op fidelity;
        ``"interpreted"`` forces the per-op path.  Decided here, once:
        the machine and the hooks are fixed at construction.
    """

    def __init__(
        self,
        model: MachineModel,
        *,
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
        self.bus = bus = HookBus(hooks)

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
        # hook shortcuts (tuples of callables, or None = disabled);
        # model handlers read these to emit spans / sync events cheaply.
        self._h_span = bus.listeners("on_op_span")
        self._h_sync = bus.listeners("on_sync")
        self._h_release = bus.listeners("on_barrier_release")
        if tier not in TIERS:
            raise ConfigurationError(f"unknown tier {tier!r}; expected one of {', '.join(TIERS)}")
        self._fast = tier == "auto" and model.fast_forward and not bus.per_op
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

    def declare_memory(self, space, racy=None) -> None:
        """Declare the program's :class:`~repro.arch.memory.AddressSpace`
        and its benign-race allocations (``{name: reason}``) to the hooks.
        Pure instrumentation: the simulation never reads either."""
        self.bus.declare_memory(space, racy or {})

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

    @property
    def tier_used(self) -> str:
        """The path the kernel's runs took: ``"vector"`` once an LD
        window has fired, else ``"interpreted"``."""
        return "vector" if self._window_stats["windows"] else "interpreted"

    # -- run --------------------------------------------------------------------

    def run(
        self,
        name: str = "phase",
        budget: int | None = None,
        *,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
    ) -> SimReport:
        """Run every thread to completion; return measurements.

        ``budget`` bounds the run (scheduling steps for event machines,
        cycles for interleaved ones); exceeding it raises
        :class:`~repro.errors.WatchdogExceeded` carrying the blocked
        inventory and the phase slices closed at the abort point (plus a
        resumable post-mortem checkpoint when the kernel is recording).

        The run executes on the constructor's tier; both tiers produce
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
        """
        if budget is None:
            budget = self.model.default_budget
        if self.event_mode and len(self.threads) != self.p:
            raise ConfigurationError(
                f"{len(self.threads)} programs attached but machine has p={self.p}"
            )
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
                    name, budget, checkpoint_every, checkpoint_sink, ctx
                )
            else:
                report = self._run_interleaved(
                    name, budget, self._fast, checkpoint_every, checkpoint_sink, ctx
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
        ckpt_every: int | None = None,
        ckpt_sink=None,
        ctx: dict | None = None,
    ) -> SimReport:
        model = self.model
        threads = self.threads
        p = self.p
        # the machine's handlers, and None for the kernel's own tags
        dispatch = {**model.handlers(self), PHASE: None, RUN_BLOCK: None, BARRIER: None}
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
        h_op = bus.listeners("on_op")
        h_phase = bus.listeners("on_phase")
        h_span = self._h_span
        h_release = self._h_release
        rec = self._rec_tids
        rec_append = rec.append if rec is not None else None
        rec_vals = self._rec_vals
        heappush, heappop, heappushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
        # The heap is fully derivable: at a step boundary it holds exactly
        # one (t.time, tid) entry per READY thread — identical to the historical
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
        # the step count at which a checkpoint is due or the budget is
        # spent: one comparison per step covers both
        gate = budget if next_ckpt is None else min(next_ckpt, budget)

        # One pass of the loop is one scheduling step of the held entry,
        # the earliest (time, tid) of the READY threads; the heap holds
        # the others.  A step that leaves its thread READY takes the next
        # entry with one heappushpop, which hands the thread's new entry
        # straight back while it still precedes the heap minimum and
        # otherwise returns that minimum: the push-then-pop order, with
        # no heap churn while one thread stays earliest.  Entries are
        # unique, so the order never depends on the heap's layout.
        entry = heappop(heap) if heap else None
        while entry is not None:
            if steps >= gate:
                # a boundary sees the held thread back on the heap, READY
                # at its entry's time, as the snapshot derives it
                heappush(heap, entry)
                if next_ckpt is not None and steps >= next_ckpt:
                    self._emit_checkpoint(ckpt_sink, {"steps": steps})
                    next_ckpt = (steps // ckpt_every + 1) * ckpt_every
                    gate = min(next_ckpt, budget)
                if steps >= budget:
                    # the aborted step is never executed, so a resume
                    # with a larger budget re-attempts exactly this step
                    self._abort_watchdog(
                        budget,
                        f"exceeded max_ops={budget}",
                        entry[0],
                        progress={"steps": steps},
                    )
                entry = heappop(heap)
            steps += 1
            time, idx = entry
            t = threads[idx]
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
                    entry = heappop(heap) if heap else None
                    continue
                # almost every resume sends None: test it once, and
                # record a value at the index its resume is logged at
                if sent is not None:
                    t.pending_value = None
                    if rec_append is not None:
                        rec_vals.append((len(rec), sent))
                if rec_append is not None:
                    rec_append(idx)
            tag = op[0]
            try:
                handler = dispatch[tag]
            except KeyError:
                raise SimulationError(
                    f"unknown opcode {tag!r} on {model.kind.upper()} processor {idx}"
                ) from None
            if handler is not None:  # a machine op
                t.issued += 1
                op_counts[tag] = op_counts.get(tag, 0) + 1
                if h_op is not None:
                    for fn in h_op:
                        fn(idx, op)
                end = handler(t, op, time)
                t.time = end
                if h_span is not None:
                    args = {"addr": op[1]} if tag != COMPUTE else {}
                    for fn in h_span:
                        fn(tag, time, end, idx, 0, args)
                entry = heappushpop(heap, (end, idx))
                continue
            # the kernel's own tags, tested only here
            if tag == PHASE:  # zero-cost marker: no slot, no time
                if h_phase is not None:
                    for fn in h_phase:
                        fn(idx, op[1])
                if time > last_mark:
                    last_mark = time
                snaps.append((last_mark, op[1], self._issued_total(), dict(op_counts)))
                entry = heappushpop(heap, entry)
                continue
            if tag == RUN_BLOCK:  # zero-cost macro: expand in place
                b = op[1]
                if b.n:
                    t.fblock = b
                    t.fbpos = 0
                entry = heappushpop(heap, entry)
                continue
            t.issued += 1  # a barrier: the one kernel tag that issues
            op_counts[tag] = op_counts.get(tag, 0) + 1
            if h_op is not None:
                for fn in h_op:
                    fn(idx, op)
            bid = op[1]
            b = barriers.get(bid)
            if b is None:
                if implicit:
                    b = barriers[bid] = _Barrier(need=p)
                else:
                    raise SimulationError(f"barrier {bid!r} was never registered")
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
            entry = heappop(heap) if heap else None

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
    ) -> SimReport:
        model = self.model
        procs = self.procs
        dispatch = model.handlers(self)
        dispatch[BARRIER] = self._interleaved_barrier  # kernel-owned
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

        while self._live > 0:
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
            if fast and in_block == self._live:
                # fast-forward the pure-LD regime in closed form; the
                # window ends (or never opens) exactly where per-op
                # execution must resume.
                w = try_ld_window(self, cycle, budget)
                if w is not None:
                    cycle, last_issue = w
                    in_block = sum(t.fblock is not None for t in threads)
                    continue
            any_ready = False
            for proc in procs:
                wake = proc.wake
                ready = proc.ready
                while wake and wake[0][0] <= cycle:
                    t = heappop(wake)[2]
                    t.state = READY
                    ready.append(t)
                if not ready:
                    continue
                any_ready = True
                t = ready.popleft()
                # ---- issue one instruction from t at cycle ----
                out = t.outstanding  # drop memory ops completed by now
                while out and out[0] <= cycle:
                    out.popleft()
                if not out:
                    t.lookahead_credit = lookahead
                # cycles only advance, so every issue is the latest yet
                if t.compute_remaining > 0:  # burst continuation: no dispatch
                    t.compute_remaining -= 1
                    t.issued += 1
                    proc.issued += 1
                    last_issue = cycle
                    op_counts[COMPUTE] = op_counts.get(COMPUTE, 0) + 1
                    ready.append(t)
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
                    # almost every resume sends None: test it once, and
                    # record a value at the index its resume is logged at
                    if sent is not None:
                        t.pending_value = None
                        if rec_append is not None:
                            rec_vals.append((len(rec), sent))
                    if rec_append is not None:
                        rec_append(t.tid)
                    tag = op[0]
                    if tag == PHASE or tag == RUN_BLOCK:
                        op = self._pseudo_ops(proc, t, op, cycle, h_phase)
                        if op is None:
                            continue
                        if t.fblock is not None:
                            in_block += 1
                if h_op is not None:
                    for fn in h_op:
                        fn(t.tid, op)
                tag = op[0]
                t.issued += 1
                proc.issued += 1
                last_issue = cycle
                op_counts[tag] = op_counts.get(tag, 0) + 1
                try:
                    handler = dispatch[tag]
                except KeyError:
                    raise SimulationError(
                        f"unknown opcode {tag!r} from tid {t.tid}"
                    ) from None
                handler(proc, t, op, cycle)
            if any_ready:
                cycle += 1
            else:
                # globally idle: fast-forward to the earliest wake-up
                nxt = None
                for proc in procs:
                    wake = proc.wake
                    if wake and (nxt is None or wake[0][0] < nxt):
                        nxt = wake[0][0]
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

    def _pseudo_ops(self, proc: _Proc, t: SimThread, op: tuple, cycle: int, h_phase):
        """Consume zero-cost pseudo-ops (no slot, no cycle) starting at
        ``op``: record ``PHASE`` marks and bind a ``RUN_BLOCK``, resuming
        the generator until a real op turns up.  Returns that op (a
        bound block's first op, which issues in this slot), or None once
        the generator finished."""
        rec = self._rec_tids
        while True:
            tag = op[0]
            if tag == PHASE:
                self._phase_snaps.append(
                    (cycle, op[1], self._issued_total(), dict(self._op_counts))
                )
                if h_phase is not None:
                    for fn in h_phase:
                        fn(t.tid, op[1])
            elif tag == RUN_BLOCK:
                b = op[1]
                if b.n:
                    if b.n > 1:
                        t.fblock = b
                        t.fbpos = 1
                    return b.ops[0]
            else:
                return op
            try:
                op = t.gen.send(None)
            except StopIteration:
                if rec is not None:
                    rec.append(t.tid)
                t.state = DONE
                proc.live -= 1
                self._live -= 1
                return None
            if rec is not None:
                rec.append(t.tid)

    def _interleaved_barrier(self, proc: _Proc, t: SimThread, op: tuple, cycle: int) -> None:
        """The kernel's ``BARRIER`` entry in the interleaved dispatch table."""
        bid = op[1]
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


class Engine:
    """One simulated machine, ready to run thread programs: a thin facade
    over ``SimKernel(machine_class(p, **params))``.

    A machine's engine is a subclass that only sets :attr:`machine_class`
    (``SMPEngine``, ``MTAEngine``, ``MTANextEngine``); machine state is
    read through :attr:`model`.  ``params`` are machine parameters
    (``streams_per_proc``, the SMP's ``config``, …); only caller-supplied
    ones reach the machine, so its own defaults apply, and an unknown
    one raises :class:`~repro.errors.ConfigurationError`.  ``hooks``,
    ``tier`` and ``record`` go to the :class:`SimKernel`; ``hooks`` is
    the one way instrumentation reaches a run.  With a ``session``
    (:class:`repro.sim.checkpoint.CheckpointSession`, which implies
    ``record``) every :meth:`run` goes through the session.
    """

    #: The :class:`MachineModel` this engine instantiates.
    machine_class: type

    def __init__(
        self,
        p: int = 1,
        *,
        hooks=(),
        tier="auto",
        session=None,
        record: bool = False,
        **params,
    ) -> None:
        try:
            self.model = self.machine_class(p, **params)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad {self.machine_class.kind} engine config: {exc}"
            ) from None
        self.p = self.model.p
        self.session = session
        self.kernel = SimKernel(
            self.model, hooks=hooks, tier=tier, record=record or session is not None
        )

    def spawn(self, gen, proc: int | None = None) -> SimThread:
        """Add a thread (placement as in :meth:`SimKernel.add_thread`)."""
        return self.kernel.add_thread(gen, proc)

    def register_barrier(self, barrier_id: str, count: int) -> None:
        self.kernel.register_barrier(barrier_id, count)

    def set_counter(self, addr: int, value: int = 0) -> None:
        self.kernel.set_counter(addr, value)

    def set_full(self, addr: int, value=0) -> None:
        self.kernel.set_full(addr, value)

    def declare_memory(self, space, racy=None) -> None:
        self.kernel.declare_memory(space, racy)

    def resume(self, state: dict) -> None:
        """Restore a kernel snapshot (spawn the same programs first)."""
        self.kernel.resume(state)

    def run(
        self,
        name: str = "phase",
        budget: int | None = None,
        *,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
    ) -> SimReport:
        """:meth:`SimKernel.run`, or the session's run when one is set
        (which then manages checkpoints itself)."""
        if self.session is not None:
            return self.session.run(self.kernel, name, budget=budget)
        return self.kernel.run(
            name,
            budget,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
        )
