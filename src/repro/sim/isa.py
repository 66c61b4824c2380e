"""Operation vocabulary for the cycle-level engines.

Simulated threads are Python generators that *compute on real data*
(NumPy arrays, Python ints) and ``yield`` one operation tuple per
machine instruction they would execute.  The engine interleaves the
generators according to the machine's scheduling rules and charges
cycles; values that must round-trip through the simulated machine
(``FETCH_ADD`` results, sync-load values) come back as the value of the
``yield`` expression.

Ops are plain tuples ``(tag, *operands)`` — the engines dispatch on the
tag string.  Tags:

``("C", k)``
    ``k`` back-to-back register/compute instructions (no memory).

``("L", addr)``
    Independent load: the thread may keep issuing up to the machine's
    lookahead before the result is needed.

``("LD", addr)``
    Dependent load: the next instruction consumes the value (pointer
    chase), so the thread blocks until the load completes.

``("S", addr)``
    Store: retired by the write buffer / memory pipeline; the thread
    does not wait for completion (subject to outstanding-op limits).

``("FA", addr, inc)``
    Atomic ``int_fetch_add``: returns the old value via ``send``;
    serialized at one per cycle per memory cell (the MTA hotspot).

``("SLE", addr)`` / ``("SLF", addr)``
    Synchronous load on a full/empty-tagged word: wait until *full*,
    read, and either set Empty (consume) or leave Full (peek).
    Returns the value.

``("SSF", addr, value)``
    Synchronous store: wait until *empty*, write ``value``, set Full.

``("GV", addr)`` / ``("PV", addr, value)``
    Value-carrying global-memory ops: read (``GV``) or write (``PV``)
    a word whose *value* the engine owns, like full/empty words but
    without blocking semantics.  Only machines with a value store
    implement them — today the sharded machines
    (:mod:`repro.sim.shard`), where they are what lets owner-computes
    programs exchange data across address partitions: a ``GV``/``PV``
    on a word owned by another partition is forwarded over the message
    channel and served by the owner in deterministic arrival order.
    ``GV`` returns the word's value via ``send`` (dependent-load
    timing); ``PV`` is a buffered store of ``value``.

``("B", barrier_id)``
    Barrier: block until every registered participant arrives.

``("P", name)``
    Phase marker (pseudo-op): costs zero cycles and no issue slot; the
    engine closes the current phase slice and opens ``name`` at the
    current cycle, so runs decompose into named phases for the
    observability subsystem (:mod:`repro.obs`).  Markers are
    engine-global — any thread may emit one, and it applies to the
    whole machine.

``("VR", block)``
    Run block (pseudo-op): a precompiled straight-line run of *plain*
    ops (``C``/``L``/``LD``/``S`` only — nothing that returns a value,
    synchronizes, or marks a phase).  The kernel macro-expands the
    block in place, charging each contained op exactly as if the
    generator had yielded it directly, so reports are identical either
    way.  Declaring a run as a block is what lets the vectorized fast
    tier (:mod:`repro.sim.fastpath`) batch-execute it: the ops are
    static data, so no generator code needs to run between them.
    Build one with :func:`run_block`.

Addresses are word addresses in a shared
:class:`repro.arch.memory.AddressSpace`; the engines only use them for
banking/hash/cache decisions — actual data lives in the program's own
arrays (except full/empty words and FA cells, whose values the engine
owns so that atomicity and blocking are real).
"""

from __future__ import annotations

import operator

__all__ = [
    "COMPUTE",
    "LOAD",
    "LOAD_DEP",
    "STORE",
    "FETCH_ADD",
    "SYNC_LOAD_EMPTY",
    "SYNC_LOAD_FULL",
    "SYNC_STORE_FULL",
    "GET_VALUE",
    "PUT_VALUE",
    "BARRIER",
    "PHASE",
    "RUN_BLOCK",
    "compute",
    "load",
    "load_dep",
    "store",
    "fetch_add",
    "sync_load_consume",
    "sync_load_peek",
    "sync_store",
    "get_value",
    "put_value",
    "barrier",
    "phase",
    "run_block",
]

COMPUTE = "C"
LOAD = "L"
LOAD_DEP = "LD"
STORE = "S"
FETCH_ADD = "FA"
SYNC_LOAD_EMPTY = "SLE"
SYNC_LOAD_FULL = "SLF"
SYNC_STORE_FULL = "SSF"
GET_VALUE = "GV"
PUT_VALUE = "PV"
BARRIER = "B"
PHASE = "P"
RUN_BLOCK = "VR"


def _as_int(value, op: str, operand: str) -> int:
    """Validate an integer operand at construction time.

    Engines fail obscurely (or silently mis-simulate — a float address
    never matches the int key a producer filled) when handed a non-int,
    so constructors reject anything that is not a true integer.  NumPy
    integer scalars pass through ``__index__``; ``bool`` is explicitly
    rejected even though it subclasses ``int``, because a bool operand
    is always a bug in a program generator.
    """
    if type(value) is int:  # the common case; excludes bool
        return value
    if isinstance(value, bool):
        raise TypeError(f"{op} {operand} must be an int, got bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{op} {operand} must be an int, got {type(value).__name__} ({value!r})"
        ) from None


# C/L/LD/S build nearly every op a paper program issues, so each repeats
# _as_int's exact-int check inline and skips the call in the common case.
def compute(k: int = 1) -> tuple:
    """``k`` compute instructions."""
    if type(k) is int:
        return (COMPUTE, k)
    return (COMPUTE, _as_int(k, "C", "k"))


def load(addr: int) -> tuple:
    """An independent (overlappable) load of one word."""
    if type(addr) is int:
        return (LOAD, addr)
    return (LOAD, _as_int(addr, "L", "addr"))


def load_dep(addr: int) -> tuple:
    """A dependent load — the thread needs the value immediately."""
    if type(addr) is int:
        return (LOAD_DEP, addr)
    return (LOAD_DEP, _as_int(addr, "LD", "addr"))


def store(addr: int) -> tuple:
    """A buffered store of one word."""
    if type(addr) is int:
        return (STORE, addr)
    return (STORE, _as_int(addr, "S", "addr"))


def fetch_add(addr: int, inc: int = 1) -> tuple:
    """Atomic fetch-and-add; old value returned via the yield expression."""
    return (FETCH_ADD, _as_int(addr, "FA", "addr"), _as_int(inc, "FA", "inc"))


def sync_load_consume(addr: int) -> tuple:
    """Wait-until-full load that sets the word Empty (consume)."""
    return (SYNC_LOAD_EMPTY, _as_int(addr, "SLE", "addr"))


def sync_load_peek(addr: int) -> tuple:
    """Wait-until-full load that leaves the word Full (peek)."""
    return (SYNC_LOAD_FULL, _as_int(addr, "SLF", "addr"))


def sync_store(addr: int, value) -> tuple:
    """Wait-until-empty store that sets the word Full (produce).

    ``value`` is the datum round-tripped to the matching sync load; it
    may be any object, so it is not constrained to an int.
    """
    return (SYNC_STORE_FULL, _as_int(addr, "SSF", "addr"), value)


def get_value(addr: int) -> tuple:
    """Read an engine-owned word's value (dependent-load timing).

    Returns the value via the yield expression.  Served by machines
    with a value store (the sharded machines); on a word owned by a
    remote partition the read round-trips over the message channel.
    """
    return (GET_VALUE, _as_int(addr, "GV", "addr"))


def put_value(addr: int, value) -> tuple:
    """Write an engine-owned word's value (buffered-store timing).

    Like :func:`store` but the engine keeps ``value``; a remote owner
    applies it in deterministic arrival order.  ``value`` may be any
    picklable object.
    """
    return (PUT_VALUE, _as_int(addr, "PV", "addr"), value)


def barrier(barrier_id: str = "default") -> tuple:
    """Block until all registered participants of ``barrier_id`` arrive."""
    if not isinstance(barrier_id, str):
        raise TypeError(
            f"B barrier_id must be a str, got {type(barrier_id).__name__}"
        )
    return (BARRIER, barrier_id)


def phase(name: str) -> tuple:
    """Zero-cost phase marker: start the named phase at the current cycle."""
    if not isinstance(name, str):
        raise TypeError(f"P name must be a str, got {type(name).__name__}")
    return (PHASE, name)


def run_block(ops) -> tuple:
    """Precompile a straight-line run of plain ops into one ``VR`` pseudo-op.

    ``ops`` is a sequence of already-built op tuples restricted to the
    plain subset (``C``/``L``/``LD``/``S``).  The returned pseudo-op
    costs nothing itself; the kernel expands it in place, so yielding
    ``run_block([load_dep(a), load_dep(b)])`` simulates identically to
    yielding the two loads — but the declared run is what the
    vectorized fast tier can execute as a batch.  Passing an
    :class:`~repro.sim.fastpath.OpBlock` built earlier reuses its
    precomputed form (build once per inner loop, yield many times).
    """
    from .fastpath import OpBlock

    if not isinstance(ops, OpBlock):
        ops = OpBlock(ops)
    return (RUN_BLOCK, ops)
