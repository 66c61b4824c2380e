"""Fuzz tests: random thread programs must never wedge the engines.

Hypothesis generates arbitrary well-formed op sequences (no orphan
barriers, producers matched to consumers) and checks the engines'
global invariants: termination, exact instruction accounting,
utilization bounds, and conservation of fetch-add increments.

The second half is the **differential tier fuzzer**: the same random
programs (sync-word producer/consumer patterns, barriers, phase
markers, ``run_block`` chains, varying stream counts and machine
parameters) run on the ``interpreted`` *and* the ``auto`` tier of both
machines (on the MTA, ``auto`` fast-forwards LD windows; on the SMP
both tiers run one loop, and the SMP leg guards against a fork coming
back), and the resulting :class:`~repro.sim.SimReport` must be
byte-identical — cycles, per-processor issue counts, op histograms,
phase slices, barrier statistics, contention detail.  A failure prints
the seed and a one-line repro command; replay a single seed with::

    REPRO_FUZZ_SEED=<seed> PYTHONPATH=src python -m pytest \
        tests/test_sim_fuzz.py -k differential
"""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import MTAEngine, SMPEngine, isa

# one op of a random straight-line program (no sync ops — those need
# matched partners and are fuzzed separately below)
plain_op = st.one_of(
    st.integers(min_value=1, max_value=5).map(isa.compute),
    st.integers(min_value=0, max_value=4000).map(isa.load),
    st.integers(min_value=0, max_value=4000).map(isa.load_dep),
    st.integers(min_value=0, max_value=4000).map(isa.store),
    st.integers(min_value=0, max_value=16).map(lambda a: isa.fetch_add(a, 1)),
)

program_strategy = st.lists(plain_op, min_size=0, max_size=30)


def make_gen(ops):
    def gen():
        for op in ops:
            result = yield op
            del result

    return gen()


@settings(max_examples=50, deadline=None)
@given(programs=st.lists(program_strategy, min_size=1, max_size=12))
def test_mta_engine_accounts_every_instruction(programs):
    eng = MTAEngine(p=2, streams_per_proc=64, mem_latency=20)
    for addr in range(17):
        eng.set_counter(addr, 0)
    total_ops = 0
    for ops in programs:
        total_ops += sum(op[1] if op[0] == "C" else 1 for op in ops)
        eng.spawn(make_gen(ops))
    report = eng.run(budget=2_000_000)
    assert report.total_issued == total_ops
    assert 0.0 <= report.utilization <= 1.0
    assert report.cycles >= -(-total_ops // 2)  # at most 2 issues per cycle (p=2)


@settings(max_examples=50, deadline=None)
@given(programs=st.lists(program_strategy, min_size=1, max_size=6))
def test_smp_engine_accounts_every_instruction(programs):
    p = len(programs)
    eng = SMPEngine(p=p)
    for addr in range(17):
        eng.set_counter(addr, 0)
    total_ops = 0
    for ops in programs:
        total_ops += len(ops)
        eng.spawn(make_gen(ops))
    report = eng.run()
    assert report.total_issued == total_ops


@settings(max_examples=30, deadline=None)
@given(
    increments=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fetch_add_conserves_sum_under_any_interleaving(increments, seed):
    rng = np.random.default_rng(seed)
    eng = MTAEngine(p=int(rng.integers(1, 5)), streams_per_proc=64, mem_latency=5)
    eng.set_counter(0, 100)

    def adder(inc):
        yield isa.compute(int(rng.integers(1, 4)))
        yield isa.fetch_add(0, inc)

    for inc in increments:
        eng.spawn(adder(inc))
    eng.run()
    assert eng.model.fa_values[0] == 100 + sum(increments)


@settings(max_examples=30, deadline=None)
@given(n_pairs=st.integers(min_value=1, max_value=10), seed=st.integers(min_value=0, max_value=2**31))
def test_full_empty_pairs_always_complete(n_pairs, seed):
    """Matched producer/consumer sets never deadlock and every value
    is delivered exactly once."""
    rng = np.random.default_rng(seed)
    eng = MTAEngine(p=int(rng.integers(1, 4)), streams_per_proc=64, mem_latency=10)
    received = []

    def producer(addr, value, delay):
        yield isa.compute(delay)
        yield isa.sync_store(addr, value)

    def consumer(addr, delay):
        yield isa.compute(delay)
        v = yield isa.sync_load_consume(addr)
        received.append(v)

    for k in range(n_pairs):
        addr = 1000 + int(rng.integers(0, 3))  # shared cells across pairs
        eng.spawn(producer(addr, k, int(rng.integers(1, 20))))
        eng.spawn(consumer(addr, int(rng.integers(1, 20))))
    eng.run()
    assert sorted(received) == list(range(n_pairs))


# ---------------------------------------------------------------------------
# Differential tier fuzzing: auto tier ≡ interpreted tier, byte for byte
# ---------------------------------------------------------------------------

#: Seeds per machine (the acceptance floor is 200); ``REPRO_FUZZ_SEED``
#: narrows the run to one seed for replay.
_N_SEEDS = 200
_BLOCK = 10  # seeds per pytest item (keeps collection cheap)

_REPLAY = os.environ.get("REPRO_FUZZ_SEED")


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def _report_blob(report) -> str:
    """Canonical bytes of everything a SimReport observes."""
    return json.dumps(
        _canon(
            {
                "name": report.name,
                "p": report.p,
                "cycles": report.cycles,
                "issued": list(report.issued),
                "op_counts": report.op_counts,
                "detail": report.detail,
                "phases": [asdict(ph) for ph in report.phases],
            }
        ),
        sort_keys=True,
    )


def _fuzz_programs(rng):
    """A random matched set of stream programs, as op-list data.

    Mixes every construct the tiers must agree on: plain ops, fetch-adds,
    phase markers, ``run_block`` chains (biased toward pure dependent-load
    blocks — the LD windows' food), one all-streams barrier, and
    matched sync-store/consume pairs (MTA only; the caller skips them on
    the SMP, whose machine has no full/empty handlers).
    """
    n_progs = int(rng.integers(1, 10))
    with_barrier = bool(rng.integers(0, 2)) and n_progs > 1
    progs = []
    for _ in range(n_progs):
        ops = []
        for _ in range(int(rng.integers(0, 14))):
            c = int(rng.integers(0, 7))
            if c == 0:
                ops.append(isa.compute(int(rng.integers(1, 5))))
            elif c == 1:
                ops.append(isa.load(int(rng.integers(0, 200))))
            elif c == 2:
                ops.append(isa.load_dep(int(rng.integers(0, 200))))
            elif c == 3:
                ops.append(isa.store(int(rng.integers(0, 200))))
            elif c == 4:
                ops.append(isa.fetch_add(int(rng.integers(0, 8)),
                                         int(rng.integers(-3, 4))))
            elif c == 5:
                ops.append(isa.phase(f"ph{int(rng.integers(0, 3))}"))
            else:
                if rng.integers(0, 2):
                    # pure dependent-load chain: the LD-window regime
                    blk = [isa.load_dep(int(a))
                           for a in rng.integers(0, 200, int(rng.integers(1, 40)))]
                else:
                    blk = []
                    for _ in range(int(rng.integers(1, 30))):
                        k = int(rng.integers(0, 4))
                        if k == 0:
                            blk.append(isa.compute(int(rng.integers(1, 4))))
                        elif k == 1:
                            blk.append(isa.load(int(rng.integers(0, 200))))
                        elif k == 2:
                            blk.append(isa.load_dep(int(rng.integers(0, 200))))
                        else:
                            blk.append(isa.store(int(rng.integers(0, 200))))
                ops.append(isa.run_block(blk))
        if with_barrier:
            ops.insert(int(rng.integers(0, len(ops) + 1)), isa.barrier("bz"))
        progs.append(ops)
    n_pairs = int(rng.integers(0, 3))
    pairs = [
        (900 + int(rng.integers(0, 2)), k,
         int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        for k in range(n_pairs)
    ]
    return progs, with_barrier, pairs


def _gen_of(ops):
    def g():
        for op in ops:
            result = yield op
            del result

    return g()


def _run_fuzz_mta(tier: str, seed: int):
    rng = np.random.default_rng(seed)
    progs, with_barrier, pairs = _fuzz_programs(rng)
    eng = MTAEngine(
        p=int(rng.integers(1, 4)),
        streams_per_proc=16,
        mem_latency=int(rng.integers(1, 30)),
        lookahead=int(rng.integers(0, 4)),
        max_outstanding=int(rng.integers(1, 5)),
        tier=tier,
    )
    for addr in range(8):
        eng.set_counter(addr, 0)
    if with_barrier:
        eng.register_barrier("bz", len(progs))
    for ops in progs:
        eng.spawn(_gen_of(ops))

    def producer(addr, value, delay):
        yield isa.compute(delay)
        yield isa.sync_store(addr, value)

    def consumer(addr, delay):
        yield isa.compute(delay)
        v = yield isa.sync_load_consume(addr)
        del v

    for addr, value, d1, d2 in pairs:
        eng.spawn(producer(addr, value, d1))
        eng.spawn(consumer(addr, d2))
    report = eng.run("fuzz", 10_000_000)
    return _report_blob(report), eng.kernel.window_stats["windows"]


def _run_fuzz_smp(tier: str, seed: int):
    rng = np.random.default_rng(seed)
    progs, with_barrier, _pairs = _fuzz_programs(rng)
    eng = SMPEngine(p=len(progs), tier=tier)
    for addr in range(8):
        eng.set_counter(addr, 0)
    if with_barrier:
        eng.register_barrier("bz", len(progs))
    for ops in progs:
        eng.spawn(_gen_of(ops))
    report = eng.run("fuzz")
    return _report_blob(report), 0


_RUNNERS = {"mta": _run_fuzz_mta, "smp": _run_fuzz_smp}

if _REPLAY is not None:
    _SEED_BLOCKS = [int(_REPLAY)]
else:
    _SEED_BLOCKS = list(range(0, _N_SEEDS, _BLOCK))


@pytest.mark.parametrize("machine", sorted(_RUNNERS))
@pytest.mark.parametrize("seed_block", _SEED_BLOCKS)
def test_differential_tiers_byte_identical(machine, seed_block):
    """Random programs produce byte-identical SimReports on both tiers."""
    runner = _RUNNERS[machine]
    seeds = [seed_block] if _REPLAY is not None else range(
        seed_block, seed_block + _BLOCK
    )
    for seed in seeds:
        interp, _ = runner("interpreted", seed)
        auto, _ = runner("auto", seed)
        assert interp == auto, (
            f"{machine} tier divergence at seed {seed}; replay with:\n"
            f"  REPRO_FUZZ_SEED={seed} PYTHONPATH=src python -m pytest "
            f"tests/test_sim_fuzz.py -k 'differential and {machine}'"
        )


def test_differential_fuzz_exercises_ld_windows():
    """The fuzz corpus actually drives the MTA fast-forward (a corpus
    whose windows never fire would vacuously pass the differential
    check), and a hand-built pure-LD walk both fires windows and stays
    byte-identical."""
    windows = 0
    for seed in range(40):
        _, w = _run_fuzz_mta("auto", seed)
        windows += w
    assert windows > 0

    def walker(base):
        yield isa.run_block([isa.load_dep(base + 8 * i) for i in range(64)])
        yield isa.compute(1)
        yield isa.run_block([isa.load_dep(base + 8 * i) for i in range(32)])

    blobs = {}
    for tier in ("interpreted", "auto"):
        eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=15, tier=tier)
        for k in range(16):
            eng.spawn(walker(k * 4096))
        report = eng.run("walk")
        blobs[tier] = _report_blob(report)
        if tier == "auto":
            assert eng.kernel.window_stats["windows"] > 0
            assert eng.kernel.tier_used == "vector"
    assert blobs["interpreted"] == blobs["auto"]
