"""Structured findings emitted by the concurrency analyzer.

Every detector reports :class:`Finding` records — never free-form log
lines — so that results can be deduplicated, capped, sorted into a
deterministic order, serialized to JSONL, and round-tripped in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Finding severities, most severe first.
SEVERITIES = ("error", "warning")

#: Known check identifiers (the ``check`` field of a finding).
#: The first block is the dynamic concurrency analyzer's; the
#: ``nondet-``/``state-``/``engine-``/``hook-``/``hot-``/``gen-``
#: blocks belong to the static linter (:mod:`repro.analysis.static`).
CHECKS = (
    "race",  # unordered conflicting accesses to a shared address
    "deadlock",  # threads blocked forever on full/empty words or barriers
    "barrier-mismatch",  # barrier arrivals never reach the registered count
    "sync-init",  # SLE/SLF/SSF on a word never initialized via set_full/set_counter
    "bounds",  # address outside every AddressSpace allocation
    "fa-uninit",  # FA on a counter never initialized via set_counter
    "phase-hygiene",  # unbalanced / oddly interleaved phase markers
    "barrier-unused",  # registered barrier that no thread ever reached
    "watchdog",  # run aborted by the cycle budget / simulation error
    # -- static: determinism lint -----------------------------------------
    "nondet-call",  # wall clock / unseeded RNG / uuid / urandom / hash()
    "nondet-env",  # os.environ / os.getenv read in a determinism-critical path
    "nondet-set-iter",  # iteration order taken from a set/frozenset
    "nondet-id-order",  # id() values leaking into keys or ordering
    # -- static: serializable-state contract ------------------------------
    "state-missing-pair",  # to_state without a matching from_state
    "state-attr-missing",  # run-state attribute not covered by a to_state key
    "state-key-unknown",  # from_state reads a key to_state never writes
    "state-version-stale",  # key set changed but the version constant did not
    "state-baseline-missing",  # contract class absent from the committed baseline
    # -- static: hook/engine discipline -----------------------------------
    "engine-direct-construct",  # machine/engine built outside the runner seam
    "hook-event-unknown",  # HookBus event name outside the declared set
    "hot-loop-import",  # instrumentation import inside the kernel hot core
    # -- static: program-generator shape ----------------------------------
    "gen-barrier-balance",  # barrier yield in only one branch of a loop body
    "gen-op-arity",  # raw op tuple with the wrong operand count
    "gen-runblock-shape",  # run_block containing non-straight-line ops
)


@dataclass
class Finding:
    """One analyzer diagnostic.

    ``witness`` carries check-specific evidence: for races the prior
    conflicting access (thread, op index, op kind), for deadlocks the
    blocked-thread inventory, for barrier findings arrival counts.
    """

    check: str
    severity: str
    message: str
    program: str = ""
    run: str = ""
    thread: Optional[int] = None
    op_index: Optional[int] = None
    address: Optional[int] = None
    #: Source location (static-analysis findings; None for dynamic ones).
    file: Optional[str] = None
    line: Optional[int] = None
    witness: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.check not in CHECKS:
            raise ValueError(f"unknown check id {self.check!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "severity": self.severity,
            "message": self.message,
            "program": self.program,
            "run": self.run,
            "thread": self.thread,
            "op_index": self.op_index,
            "address": self.address,
            "file": self.file,
            "line": self.line,
            "witness": self.witness,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        return cls(
            check=data["check"],
            severity=data["severity"],
            message=data["message"],
            program=data.get("program", ""),
            run=data.get("run", ""),
            thread=data.get("thread"),
            op_index=data.get("op_index"),
            address=data.get("address"),
            file=data.get("file"),
            line=data.get("line"),
            witness=dict(data.get("witness") or {}),
        )

    def sort_key(self):
        return (
            SEVERITIES.index(self.severity),
            self.check,
            self.program,
            self.run,
            self.file or "",
            self.line if self.line is not None else -1,
            self.address if self.address is not None else -1,
            self.thread if self.thread is not None else -1,
            self.op_index if self.op_index is not None else -1,
        )

    def render(self) -> str:
        loc = []
        if self.run:
            loc.append(f"run={self.run}")
        if self.thread is not None:
            loc.append(f"thread={self.thread}")
        if self.op_index is not None:
            loc.append(f"op={self.op_index}")
        if self.address is not None:
            loc.append(f"addr={self.address}")
        where = f" [{', '.join(loc)}]" if loc else ""
        prog = f" ({self.program})" if self.program else ""
        src = f"{self.file}:{self.line}: " if self.file else ""
        return f"{src}{self.severity.upper()} {self.check}{prog}{where}: {self.message}"


@dataclass
class AnalysisReport:
    """The full result of analyzing one program/workload."""

    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def ok(self) -> bool:
        """True iff the program analyzed clean (no errors)."""
        return not self.errors

    def by_check(self, check: str) -> List[Finding]:
        return [f for f in self.findings if f.check == check]

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
            if self.findings
            else "clean: no findings"
        )
        return "\n".join(lines)


def dump_jsonl(findings: Iterable[Finding]) -> str:
    """Serialize findings one-per-line with sorted keys (deterministic)."""
    return "".join(json.dumps(f.to_dict(), sort_keys=True) + "\n" for f in findings)


def load_jsonl(text: str) -> List[Finding]:
    """Inverse of :func:`dump_jsonl`."""
    out: List[Finding] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append(Finding.from_dict(json.loads(line)))
    return out
