"""The concurrency checker: the object engines report events to.

A :class:`ConcurrencyChecker` reaches an engine as
``hooks=(CheckerHook(checker),)`` (on an :class:`~repro.sim.kernel.Engine`,
the kernel entry points in ``lists.programs`` / ``graphs.programs``, or
an engine backend's ``execute``) and observes the exact op stream the
engine executes; programs declare their address space and benign-race
regions to the engine, which the hook forwards to
:meth:`~ConcurrencyChecker.set_address_space` and
:meth:`~ConcurrencyChecker.allow_racy`.  It runs two
cooperating passes over that stream:

1. the dynamic happens-before race detector (:mod:`repro.analysis.races`),
   fed by data accesses at issue time and sync accesses at *semantic*
   time (the cycle a word fills/drains, the serialized FA order, the
   barrier release);
2. a lint pass — address-bounds checks against the kernel's
   :class:`~repro.arch.memory.AddressSpace`, sync/counter-word
   initialization checks, barrier bookkeeping, phase-marker hygiene,
   and (from the engine's blocked-thread inventory at deadlock time)
   deadlock and barrier-mismatch diagnosis.

One checker instance spans a whole kernel invocation, including
kernels that run several engines back to back (the MTA list-ranking
phases); engine boundaries are treated as global barriers.  Call
:meth:`report` when done — it finalizes and returns an
:class:`~repro.analysis.findings.AnalysisReport`.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .findings import AnalysisReport, Finding
from .races import RaceDetector

#: Tags understood by the data-access pass (module-local copies so the
#: analyzer stays decoupled from the engine modules).
_WRITE_TAGS = ("S",)
_READ_TAGS = ("L", "LD")
_SYNC_TAGS = ("SLE", "SLF", "SSF")
_MAX_BOUNDS_PER_RUN = 4


class ConcurrencyChecker:
    """Collects engine events and produces an :class:`AnalysisReport`.

    Parameters
    ----------
    strict:
        When true, ``allow_racy`` annotations are ignored and every
        race is reported.  Default: annotated regions are suppressed
        (counted in ``stats["suppressed_races"]``).
    program:
        Optional program label stamped onto every finding.
    """

    def __init__(self, *, strict: bool = False, program: str = "") -> None:
        self.strict = strict
        self.program = program
        self.races = RaceDetector()
        self.findings: List[Finding] = []
        # allow_racy regions: (lo, hi, reason), hi exclusive
        self._allowed: List[Tuple[int, int, str]] = []
        # bounds intervals from the AddressSpace: sorted (lo, hi, name)
        self._bounds: Optional[List[Tuple[int, int, str]]] = None
        self._bounds_lo: List[int] = []
        # persistent across runs
        self._counters_init: set[int] = set()
        self._stored: set[int] = set()
        self._fa_warned: set[int] = set()
        self._fa_counts: Dict[int, int] = {}
        self._runs: List[str] = []
        self._total_ops = 0
        self._threads_seen: set[Tuple[int, int]] = set()
        # per-run state
        self._run_index = -1
        self._run_open = False
        self._run_name = ""
        self._engine_kind = ""
        self._p = 0
        self._op_index: Dict[int, int] = {}
        self._registered_barriers: Dict[Any, int] = {}
        self._barrier_arrivals: Dict[Any, int] = {}
        self._filled_words: set[int] = set()
        self._init_full: set[int] = set()
        self._phase_counts: Dict[Tuple[int, str], int] = {}
        self._bounds_reported = 0
        self._finalized = False

    # -- wiring --------------------------------------------------------------

    def attach_engine(self, kind: str, p: int) -> None:
        """Called from an engine constructor; opens a new run context."""
        if self._run_open:  # engine abandoned without run(); close it out
            self.end_run([])
        self._run_index += 1
        self._run_open = True
        self._run_name = f"{kind}#{self._run_index}"
        self._engine_kind = kind
        self._p = p
        self._op_index = {}
        self._registered_barriers = {}
        self._barrier_arrivals = {}
        self._filled_words = set()
        self._init_full = set()
        self._phase_counts = {}
        self._bounds_reported = 0

    def set_address_space(self, space: Any) -> None:
        """Enable bounds checking against ``space`` (an AddressSpace)."""
        intervals = sorted(
            (a.base, a.base + a.length, a.name) for a in space.allocations()
        )
        self._bounds = intervals
        self._bounds_lo = [lo for lo, _, _ in intervals]

    def allow_racy(self, lo: int, hi: int, reason: str) -> None:
        """Mark ``[lo, hi)`` as intentionally racy (suppressed unless
        strict); a program that builds one engine per phase declares its
        regions again for each, so a repeat is a no-op."""
        region = (int(lo), int(hi), reason)
        if region not in self._allowed:
            self._allowed.append(region)

    # -- engine init hooks ---------------------------------------------------

    def start_run(self, name: str) -> None:
        if name:
            self._run_name = name
        self._runs.append(self._run_name)

    def register_barrier(self, bid: Any, need: int) -> None:
        self._registered_barriers[bid] = need

    def init_full(self, addr: int) -> None:
        self._init_full.add(addr)
        self._filled_words.add(addr)

    def init_counter(self, addr: int) -> None:
        self._counters_init.add(addr)

    # -- per-op hooks --------------------------------------------------------

    def on_op(self, tid: int, op: Sequence[Any]) -> None:
        """Issue-time hook: every op the engine dispatches for ``tid``."""
        idx = self._op_index.get(tid, 0)
        self._op_index[tid] = idx + 1
        self._total_ops += 1
        key = (self._run_index, tid)
        self._threads_seen.add(key)
        tag = op[0]
        ctx = {"run": self._run_name}
        if tag in _WRITE_TAGS:
            addr = op[1]
            self._check_bounds(tid, idx, addr, tag)
            self._stored.add(addr)
            self.races.write(key, addr, tag, idx, ctx)
        elif tag in _READ_TAGS:
            addr = op[1]
            self._check_bounds(tid, idx, addr, tag)
            self.races.read(key, addr, tag, idx, ctx)
        elif tag == "FA":
            addr = op[1]
            self._check_bounds(tid, idx, addr, tag)
            self._fa_counts[addr] = self._fa_counts.get(addr, 0) + 1
            if (
                addr not in self._counters_init
                and addr not in self._stored
                and addr not in self._fa_warned
            ):
                self._fa_warned.add(addr)
                self.findings.append(
                    Finding(
                        check="fa-uninit",
                        severity="warning",
                        message=(
                            f"FA on address {addr} which was never initialized "
                            f"via set_counter or a prior store"
                        ),
                        run=self._run_name,
                        thread=tid,
                        op_index=idx,
                        address=addr,
                    )
                )
            # FA serialization: acquire/release the cell clock around the RMW.
            self.races.acquire(key, ("fa", addr))
            self.races.write(key, addr, tag, idx, ctx)
            self.races.release(key, ("fa", addr))
        elif tag in _SYNC_TAGS:
            addr = op[1]
            self._check_bounds(tid, idx, addr, tag)
            if tag == "SSF":
                self._stored.add(addr)
        elif tag == "B":
            self._barrier_arrivals[op[1]] = self._barrier_arrivals.get(op[1], 0) + 1

    def on_phase(self, tid: int, name: str) -> None:
        if not name:
            self.findings.append(
                Finding(
                    check="phase-hygiene",
                    severity="warning",
                    message="empty phase-marker name",
                    run=self._run_name,
                    thread=tid,
                    op_index=self._op_index.get(tid, 0),
                )
            )
            return
        count = self._phase_counts.get((tid, name), 0) + 1
        self._phase_counts[(tid, name)] = count
        if count == 2:  # report once per (thread, name)
            self.findings.append(
                Finding(
                    check="phase-hygiene",
                    severity="warning",
                    message=(
                        f"phase marker {name!r} emitted more than once by "
                        f"thread {tid} in one run; phase slices will overlap"
                    ),
                    run=self._run_name,
                    thread=tid,
                    op_index=self._op_index.get(tid, 0),
                )
            )

    # -- semantic-time sync hooks --------------------------------------------

    def on_sync_write(self, tid: int, addr: int) -> None:
        """A word actually fills (successful SSF)."""
        key = (self._run_index, tid)
        self._filled_words.add(addr)
        obj = ("fe", addr)
        self.races.acquire(key, obj)
        self.races.write(key, addr, "SSF", self._op_index.get(tid, 0),
                         {"run": self._run_name})
        self.races.release(key, obj)

    def on_sync_read(self, tid: int, addr: int, consume: bool) -> None:
        """A word is drained (SLE) or peeked (SLF) by ``tid``."""
        key = (self._run_index, tid)
        obj = ("fe", addr)
        self.races.acquire(key, obj)
        self.races.read(key, addr, "SLE" if consume else "SLF",
                        self._op_index.get(tid, 0), {"run": self._run_name})
        if consume:
            # draining re-enables the next SSF: the drain happens-before it
            self.races.release(key, obj)

    def on_barrier_release(self, bid: Any, tids: Sequence[int]) -> None:
        keys = [(self._run_index, t) for t in tids]
        self.races.barrier_release((self._run_index, bid), keys)

    # -- run teardown --------------------------------------------------------

    def end_run(self, blocked: Sequence[Dict[str, Any]]) -> None:
        """Close the current run; ``blocked`` is the engine's inventory of
        stuck threads when it detected a deadlock (empty on a clean exit)."""
        if not self._run_open:
            return
        self._run_open = False
        seen: set[Tuple[str, Any]] = set()
        for row in blocked:
            state = row.get("state", "")
            if state == "wait-barrier":
                bid = row.get("barrier")
                if ("barrier", bid) in seen:
                    continue
                seen.add(("barrier", bid))
                need = row.get("need", self._registered_barriers.get(bid))
                arrived = row.get("arrived", self._barrier_arrivals.get(bid))
                self.findings.append(
                    Finding(
                        check="barrier-mismatch",
                        severity="error",
                        message=(
                            f"barrier {bid!r} released never: {arrived} "
                            f"arrival(s) but {need} participant(s) required"
                        ),
                        run=self._run_name,
                        thread=row.get("tid"),
                        witness={"barrier": str(bid), "arrived": arrived,
                                 "need": need},
                    )
                )
            elif state == "wait-full":
                addr = row.get("addr")
                if ("full", addr) in seen:
                    continue
                seen.add(("full", addr))
                if addr not in self._filled_words and addr not in self._init_full:
                    self.findings.append(
                        Finding(
                            check="sync-init",
                            severity="error",
                            message=(
                                f"thread {row.get('tid')} waits for word {addr} "
                                f"to fill, but it was never set_full and no "
                                f"producer ever fills it"
                            ),
                            run=self._run_name,
                            thread=row.get("tid"),
                            address=addr,
                            witness={"state": state},
                        )
                    )
                else:
                    self.findings.append(
                        Finding(
                            check="deadlock",
                            severity="error",
                            message=(
                                f"thread {row.get('tid')} blocked forever "
                                f"waiting for word {addr} to fill"
                            ),
                            run=self._run_name,
                            thread=row.get("tid"),
                            address=addr,
                            witness={"state": state},
                        )
                    )
            elif state == "wait-empty":
                addr = row.get("addr")
                if ("empty", addr) in seen:
                    continue
                seen.add(("empty", addr))
                detail = (
                    " (the word was initialized full via set_full)"
                    if addr in self._init_full
                    else ""
                )
                self.findings.append(
                    Finding(
                        check="deadlock",
                        severity="error",
                        message=(
                            f"thread {row.get('tid')} blocked forever on SSF: "
                            f"word {addr} never empties{detail}"
                        ),
                        run=self._run_name,
                        thread=row.get("tid"),
                        address=addr,
                        witness={"state": state, "set_full": addr in self._init_full},
                    )
                )
            else:
                self.findings.append(
                    Finding(
                        check="deadlock",
                        severity="error",
                        message=(
                            f"thread {row.get('tid')} stuck in state "
                            f"{state!r} at end of run"
                        ),
                        run=self._run_name,
                        thread=row.get("tid"),
                        witness=dict(row),
                    )
                )
        for bid, need in self._registered_barriers.items():
            if self._barrier_arrivals.get(bid, 0) == 0:
                self.findings.append(
                    Finding(
                        check="barrier-unused",
                        severity="warning",
                        message=(
                            f"barrier {bid!r} registered for {need} "
                            f"participant(s) but never reached"
                        ),
                        run=self._run_name,
                        witness={"barrier": str(bid), "need": need},
                    )
                )
        self.races.end_run()

    def note_abort(self, kind: str, message: str) -> None:
        """Driver hook: the run was cut short by the watchdog / an error."""
        self._run_open = False
        self.findings.append(
            Finding(
                check="watchdog",
                severity="error",
                message=f"{kind}: {message}",
                run=self._run_name,
            )
        )

    # -- lint helpers --------------------------------------------------------

    def _check_bounds(self, tid: int, idx: int, addr: int, tag: str) -> None:
        if self._bounds is None or self._bounds_reported >= _MAX_BOUNDS_PER_RUN:
            return
        i = bisect.bisect_right(self._bounds_lo, addr) - 1
        if i >= 0:
            lo, hi, _name = self._bounds[i]
            if lo <= addr < hi:
                return
        self._bounds_reported += 1
        self.findings.append(
            Finding(
                check="bounds",
                severity="error",
                message=(
                    f"{tag} touches address {addr}, which is outside every "
                    f"AddressSpace allocation"
                ),
                run=self._run_name,
                thread=tid,
                op_index=idx,
                address=addr,
                witness={"op": tag},
            )
        )

    def _race_allowed(self, f: Finding) -> Optional[str]:
        if f.address is None:
            return None
        for lo, hi, reason in self._allowed:
            if lo <= f.address < hi:
                return reason
        return None

    # -- finalize ------------------------------------------------------------

    def report(self) -> AnalysisReport:
        """Finalize (idempotent) and return the analysis report."""
        if self._run_open:
            self.end_run([])
        if not self._finalized:
            self._finalized = True
            suppressed = 0
            reasons: List[str] = []
            merged: List[Finding] = []
            for f in self.findings + self.races.findings:
                if f.check == "race" and not self.strict:
                    reason = self._race_allowed(f)
                    if reason is not None:
                        suppressed += 1
                        if reason not in reasons:
                            reasons.append(reason)
                        continue
                f.program = f.program or self.program
                merged.append(f)
            # deterministic order + exact-duplicate removal
            merged.sort(key=lambda f: f.sort_key())
            unique: List[Finding] = []
            seen: set[str] = set()
            for f in merged:
                sig = repr(f.to_dict())
                if sig not in seen:
                    seen.add(sig)
                    unique.append(f)
            from ..obs import fa_concentration

            self._final = AnalysisReport(
                findings=unique,
                stats={
                    "program": self.program,
                    "strict": self.strict,
                    "runs": list(self._runs),
                    "ops": self._total_ops,
                    "threads": len(self._threads_seen),
                    "suppressed_races": suppressed,
                    "suppression_reasons": reasons,
                    "fa": fa_concentration(self._fa_counts),
                },
            )
        return self._final
