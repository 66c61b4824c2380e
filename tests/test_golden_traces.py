"""Golden-trace snapshots of three canonical contention scenarios.

Each scenario runs a tiny, fully deterministic thread program at
``op``-level tracing and compares the serialized JSONL trace byte for
byte against a checked-in snapshot under ``tests/golden/``.  The
snapshots pin down the engines' cycle-level behaviour — issue order,
serialization, wait intervals — so an unintended scheduling change
shows up as a trace diff, not just a cycle-count drift.

To regenerate after an *intended* engine change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then review the diff like any other code change.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.obs import ContentionProfile, Tracer, jsonl_dumps, read_jsonl
from repro.sim import MTAEngine, SMPEngine, TracerHook, isa

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _check(name: str, tracer: Tracer) -> None:
    path = GOLDEN_DIR / f"{name}.jsonl"
    text = jsonl_dumps(tracer.events)
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
    assert path.exists(), f"golden trace missing; regenerate with REPRO_REGEN_GOLDEN=1 ({path})"
    assert text == path.read_text(), (
        f"trace for {name!r} deviates from the golden snapshot; if the engine "
        "change is intended, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
    )
    # snapshots must stay loadable through the public reader
    assert read_jsonl(path) == tracer.events


# -- scenario 1: fetch-add hotspot --------------------------------------------------
# Streams on two MTA processors (and two SMP processors) hammer one
# counter cell; the cell serves one request per cycle, so concurrent
# requests serialize and the trace shows the stalls.  Two processors
# matter on the MTA: a single processor issues at most one instruction
# per cycle, which can never collide at the cell.


def _mta_fa_hotspot() -> tuple:
    t = Tracer(level="op")
    eng = MTAEngine(p=2, streams_per_proc=2, mem_latency=5, lookahead=2, hooks=(TracerHook(t),))
    eng.set_counter(64, 0)

    def worker():
        for _ in range(3):
            yield isa.fetch_add(64, 1)
            yield isa.compute(1)

    for _ in range(4):
        eng.spawn(worker())
    return eng.run("fa-hotspot"), t


def test_mta_fa_hotspot_golden():
    _, t = _mta_fa_hotspot()
    _check("mta_fa_hotspot", t)


def test_mta_fa_hotspot_profile():
    rep, _ = _mta_fa_hotspot()
    prof = ContentionProfile.from_report(rep)
    (addr, ops, stalls), = prof.hottest_fa_sites(1)
    assert addr == 64 and ops == 12
    assert stalls > 0  # 12 requests at one/cycle must serialize


def test_smp_fa_hotspot_golden():
    t = Tracer(level="op")
    eng = SMPEngine(p=2, hooks=(TracerHook(t),))
    eng.set_counter(64, 0)

    def program(proc):
        for _ in range(3):
            yield isa.fetch_add(64, 1)
            yield isa.compute(1)

    for i in range(2):
        eng.spawn(program(i))
    rep = eng.run("fa-hotspot")
    assert rep.detail["fa_sites"][64][0] == 6
    _check("smp_fa_hotspot", t)


# -- scenario 2: full/empty producer-consumer (MTA only) ---------------------------
# A consumer blocks on an Empty word; the producer fills it after some
# compute. The golden trace pins the wait interval and the FIFO wakeup.


def _mta_producer_consumer() -> tuple:
    t = Tracer(level="op")
    eng = MTAEngine(p=1, streams_per_proc=4, mem_latency=5, hooks=(TracerHook(t),))

    def producer():
        yield isa.compute(10)
        yield isa.sync_store(128, 7)
        yield isa.compute(10)
        yield isa.sync_store(128, 8)

    def consumer():
        v1 = yield isa.sync_load_consume(128)
        yield isa.compute(1)
        v2 = yield isa.sync_load_consume(128)
        assert (v1, v2) == (7, 8)

    eng.spawn(consumer())  # spawned first so it demonstrably waits
    eng.spawn(producer())
    return eng.run("producer-consumer"), t


def test_mta_producer_consumer_golden():
    _, t = _mta_producer_consumer()
    _check("mta_producer_consumer", t)


def test_mta_producer_consumer_wait_histogram():
    rep, _ = _mta_producer_consumer()
    assert rep.detail["fe_wait_cycles"] > 0
    assert sum(rep.detail["fe_wait_hist"].values()) >= 1


# -- scenario 3: barrier join ------------------------------------------------------
# Threads with deliberately unequal work meet at a barrier; the golden
# trace pins each waiter's arrival-to-release interval.


def _mta_barrier_join() -> tuple:
    t = Tracer(level="op")
    eng = MTAEngine(
        p=1, streams_per_proc=4, mem_latency=5, barrier_latency=3, hooks=(TracerHook(t),)
    )
    eng.register_barrier("join", 3)

    def worker(work):
        yield isa.compute(work)
        yield isa.barrier("join")
        yield isa.store(256)

    for work in (2, 8, 20):
        eng.spawn(worker(work))
    return eng.run("barrier-join"), t


def test_mta_barrier_join_golden():
    _, t = _mta_barrier_join()
    _check("mta_barrier_join", t)


def test_mta_barrier_join_stats():
    rep, _ = _mta_barrier_join()
    b = rep.detail["barrier_waits"]["join"]
    assert b["episodes"] == 3
    assert b["max_wait"] >= 18  # the 2-cycle thread waits for the 20-cycle one
    assert b["wait_cycles"] > b["max_wait"]


def test_smp_barrier_join_golden():
    t = Tracer(level="op")
    eng = SMPEngine(p=3, hooks=(TracerHook(t),))

    def program(proc):
        yield isa.compute(4 * (proc + 1) ** 2)
        yield isa.barrier("join")
        yield isa.store(4096 + 64 * proc)

    for i in range(3):
        eng.spawn(program(i))
    rep = eng.run("barrier-join")
    waits = rep.detail["barrier_wait_cycles"]
    assert waits[0] > waits[2]  # the lightest processor waits longest
    _check("smp_barrier_join", t)


# -- partition invariant on every scenario ----------------------------------------


@pytest.mark.parametrize(
    "runner", [_mta_fa_hotspot, _mta_producer_consumer, _mta_barrier_join]
)
def test_phase_cycles_sum_to_total(runner):
    rep, _ = runner()
    assert sum(s.cycles for s in rep.phases) == rep.cycles
