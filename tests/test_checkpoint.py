"""Kernel-level checkpoint/restore: pause, serialize, resume, byte-identical.

The contract under test (docs/SIMULATION.md, "Checkpoint & resume"):
a recording kernel paused at any scheduling boundary, its snapshot
pushed through ``pickle`` (the process boundary), restored into a
*freshly built* engine and run to completion, must produce a
:class:`~repro.sim.SimReport` — and shared-array side effects, and the
hook event stream — byte-identical to the uninterrupted run.  On both
machines, on both execution tiers (``auto`` fires an LD window in the
MTA workload; on the SMP both tiers run one loop), at arbitrary
boundaries (the Hypothesis property below reuses the differential
fuzzer's program generator from :mod:`tests.test_sim_fuzz`).

Also covered here: the watchdog post-mortem artifact (resume an aborted
run with a larger budget), the on-disk artifact codec, and the full
stale-checkpoint rejection matrix — every mismatch must raise a
structured :class:`~repro.errors.CheckpointError` *before* anything is
restored.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, RunPaused, WatchdogExceeded
from repro.sim import MTAEngine, SMPEngine
from repro.sim.checkpoint import (
    CheckpointSession,
    CheckpointStore,
    load_checkpoint,
    read_header,
)
from repro.sim.isa import (
    barrier,
    compute,
    fetch_add,
    load,
    load_dep,
    phase,
    run_block,
    store,
    sync_load_consume,
    sync_store,
)
from tests.test_sim_fuzz import _fuzz_programs, _gen_of, _report_blob

# ---------------------------------------------------------------------------
# deterministic builders (module-level so the subprocess test can import them)
# ---------------------------------------------------------------------------


def build_mta(record=False, session=None, **engine_kw):
    """A small MTA workload covering every stateful construct: counters,
    barriers, phases, full/empty sync, run_block chains, shared arrays.
    ``engine_kw`` (``tier``, ``hooks``) go to the engine."""
    eng = MTAEngine(p=2, record=record, session=session, **engine_kw)
    arr = np.zeros(64, dtype=np.int64)

    def worker(wid):
        v = yield fetch_add(1000, 1)
        yield compute(3)
        for i in range(10):
            yield load(2000 + 8 * (v * 10 + i))
            arr[v * 10 + i] += i
        yield barrier("b0")
        yield phase(f"phase-{wid}")
        if wid == 0:
            yield sync_store(3000, 42)
        elif wid == 1:
            got = yield sync_load_consume(3000)
            arr[0] += got
        yield run_block([load_dep(4000), load_dep(4008), load_dep(4016)])
        yield store(5000 + wid * 8)

    eng.set_counter(1000, 0)
    eng.register_barrier("b0", 4)
    for wid in range(4):
        eng.spawn(worker(wid))
    return eng, arr


def build_smp(record=False, session=None, **engine_kw):
    eng = SMPEngine(p=4, record=record, session=session, **engine_kw)
    arr = np.zeros(64, dtype=np.int64)

    def prog(pid):
        v = yield fetch_add(100, 1)
        yield compute(5)
        for i in range(20):
            yield load(8 * (pid * 32 + i))
            arr[pid * 16 + i % 16] += 1
        yield barrier("b")
        yield phase(f"p{pid}")
        yield store(8 * pid)
        arr[pid] += v

    eng.set_counter(100, 0)
    for pid in range(4):
        eng.spawn(prog(pid))
    return eng, arr


_BUILDERS = {"mta": build_mta, "smp": build_smp}


class _LogHook:
    """Phase-level hook recording the event stream (tier-independent:
    subscribes to no per-op event, so ``auto`` still fast-forwards)."""

    def __init__(self):
        self.events = []

    def on_run_start(self, name, p):
        self.events.append(("start", name, p))

    def on_phase(self, tid, label):
        self.events.append(("phase", tid, label))

    def on_barrier_release(self, bid, tids):
        self.events.append(("release", bid, tuple(tids)))

    def end_run(self, report):
        self.events.append(("end", report.name, report.cycles))


def _pause_state(eng, pause_at, name="test", **run_kw):
    """Run until the first boundary at/past ``pause_at``; return the
    snapshot, or None when the run finished before any boundary."""
    try:
        eng.run(name, checkpoint_every=pause_at, checkpoint_sink=lambda s: True, **run_kw)
    except RunPaused as exc:
        return exc.state
    return None


# ---------------------------------------------------------------------------
# round trips: both machines x their tiers x several boundaries
# ---------------------------------------------------------------------------


#: Pause boundaries per machine (the MTA run spans hundreds of cycles;
#: the SMP one is ~115 scheduling steps).
_PAUSES = {"mta": (1, 50, 200), "smp": (1, 20, 80)}

#: Machine x tier legs: on the SMP both tiers run one event loop, so
#: its interpreted leg covers it.
_LEGS = [("mta", "interpreted"), ("mta", "auto"), ("smp", "interpreted")]


@pytest.mark.parametrize("machine, tier", _LEGS)
@pytest.mark.parametrize("which", [0, 1, 2])
def test_roundtrip_report_and_memory(machine, tier, which):
    pause_at = _PAUSES[machine][which]
    build = _BUILDERS[machine]
    eng0, arr0 = build(tier=tier)
    rep0 = eng0.run("test")

    eng1, _ = build(record=True, tier=tier)
    state = _pause_state(eng1, pause_at)
    assert state is not None, "workload finished before the pause boundary"

    # the process boundary: the snapshot must survive serialization
    blob = pickle.dumps(state)
    eng2, arr2 = build(tier=tier)
    eng2.resume(pickle.loads(blob))
    rep2 = eng2.run("IGNORED")  # resumed runs keep their name
    assert _report_blob(rep2) == _report_blob(rep0)
    assert np.array_equal(arr2, arr0)


@pytest.mark.parametrize("machine, tier", _LEGS)
def test_roundtrip_hook_event_stream(machine, tier):
    """Prefix (before the pause) + continuation (after resume) equals
    the uninterrupted event stream — ``on_run_start`` is not re-emitted
    and no boundary event is doubled or dropped."""
    build = _BUILDERS[machine]
    whole = _LogHook()
    eng0, _ = build(tier=tier, hooks=(whole,))
    rep0 = eng0.run("test")

    prefix = _LogHook()
    eng1, _ = build(record=True, tier=tier, hooks=(prefix,))
    state = _pause_state(eng1, 50)
    assert state is not None

    tail = _LogHook()
    eng2, _ = build(tier=tier, hooks=(tail,))
    eng2.resume(pickle.loads(pickle.dumps(state)))
    rep2 = eng2.run("IGNORED")
    assert prefix.events + tail.events == whole.events
    assert rep2.name == rep0.name == "test"


@pytest.mark.parametrize("machine, tier", _LEGS)
def test_tier_used_follows_the_windows_across_resume(machine, tier, tmp_path):
    """``tier_used`` reads ``"vector"`` exactly when an LD window has
    fired, on a resumed kernel as on the uninterrupted one, and each
    artifact header's ``tier`` says the same of its snapshot: only the
    MTA's ``auto`` leg fires a window, late in the run."""
    build = _BUILDERS[machine]
    eng0, _ = build(tier=tier)
    eng0.run("test")
    session = CheckpointSession(every=_PAUSES[machine][1], store=CheckpointStore(tmp_path))
    build(session=session, tier=tier)[0].run("test")
    header_tiers = set()
    for path in session.written:
        ckpt = load_checkpoint(path)
        windows = ckpt.state["window_stats"]["windows"]
        assert ckpt.header["tier"] == ("vector" if windows else "interpreted")
        header_tiers.add(ckpt.header["tier"])
        eng2, _ = build(tier=tier)
        eng2.resume(pickle.loads(pickle.dumps(ckpt.state)))
        assert eng2.kernel.tier_used == ckpt.header["tier"]
        eng2.run("IGNORED")
        stats = eng2.kernel.window_stats
        assert stats == eng0.kernel.window_stats
        assert eng2.kernel.tier_used == eng0.kernel.tier_used == (
            "vector" if stats["windows"] else "interpreted"
        )
    fires = (machine, tier) == ("mta", "auto")
    assert header_tiers == ({"interpreted", "vector"} if fires else {"interpreted"})


@pytest.mark.parametrize("n_threads, dtype", [(256, np.uint8), (257, np.int32)])
def test_resume_log_packs_tids_on_both_sides_of_256(n_threads, dtype):
    """The log packs tids as uint8 up to 256 threads and as int32 above;
    either way it holds the recorded order and resumes byte-identically."""

    def build(record=False):
        eng = MTAEngine(p=3, record=record)  # 128 streams per processor

        def worker(i):
            yield load(8 * i)
            yield compute(2)
            yield store(8 * i)

        for i in range(n_threads):
            eng.spawn(worker(i))
        return eng

    rep0 = build().run("test")
    eng1 = build(record=True)
    state = _pause_state(eng1, 100)
    assert state is not None
    tids = state["log"]["tids"]
    assert tids.dtype == dtype
    assert tids.tolist() == list(eng1.kernel._rec_tids)
    assert max(tids.tolist()) == n_threads - 1  # every thread resumed

    eng2 = build()
    eng2.resume(pickle.loads(pickle.dumps(state)))
    assert _report_blob(eng2.run("IGNORED")) == _report_blob(rep0)


# ---------------------------------------------------------------------------
# property: random programs, random boundaries (fuzz-generator reuse)
# ---------------------------------------------------------------------------


def _fuzz_engine(machine, seed, record=False, tier="auto"):
    """Deterministic engine + matched fuzz programs for ``seed`` —
    identical construction on every call, which is exactly what restore
    relies on (the workload is rebuilt, not unpickled)."""
    rng = np.random.default_rng(seed)
    progs, with_barrier, pairs = _fuzz_programs(rng)
    if machine == "mta":
        eng = MTAEngine(
            p=int(rng.integers(1, 4)),
            streams_per_proc=16,
            mem_latency=int(rng.integers(1, 30)),
            lookahead=int(rng.integers(0, 4)),
            max_outstanding=int(rng.integers(1, 5)),
            record=record,
            tier=tier,
        )
    else:
        eng = SMPEngine(p=len(progs), record=record, tier=tier)
    for addr in range(8):
        eng.set_counter(addr, 0)
    if with_barrier:
        eng.register_barrier("bz", len(progs))
    for ops in progs:
        eng.spawn(_gen_of(ops))
    if machine == "mta":

        def producer(addr, value, delay):
            yield compute(delay)
            yield sync_store(addr, value)

        def consumer(addr, delay):
            yield compute(delay)
            v = yield sync_load_consume(addr)
            del v

        for addr, value, d1, d2 in pairs:
            eng.spawn(producer(addr, value, d1))
            eng.spawn(consumer(addr, d2))
    return eng


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    pause_at=st.integers(min_value=1, max_value=400),
    machine=st.sampled_from(["mta", "smp"]),
    tier=st.sampled_from(["interpreted", "auto"]),
)
def test_roundtrip_property_fuzzed_programs(seed, pause_at, machine, tier):
    rep0 = _fuzz_engine(machine, seed, tier=tier).run("fuzz", 10_000_000)
    state = _pause_state(
        _fuzz_engine(machine, seed, record=True, tier=tier),
        pause_at,
        name="fuzz",
        budget=10_000_000,
    )
    if state is None:
        return  # run shorter than the first boundary: nothing to resume
    eng2 = _fuzz_engine(machine, seed, tier=tier)
    eng2.resume(pickle.loads(pickle.dumps(state)))
    rep2 = eng2.run("IGNORED", 10_000_000)
    assert _report_blob(rep2) == _report_blob(rep0)


# ---------------------------------------------------------------------------
# restore in a genuinely fresh process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("machine", sorted(_BUILDERS))
def test_roundtrip_fresh_process(machine, tmp_path):
    build = _BUILDERS[machine]
    eng0, arr0 = build()
    blob0 = _report_blob(eng0.run("test"))

    store = CheckpointStore(tmp_path)
    session = CheckpointSession(every=100, store=store, should_stop=lambda: True)
    eng1, _ = build(session=session)
    with pytest.raises(RunPaused):
        eng1.run("test")
    assert session.written, "pause must persist an artifact"
    artifact = session.written[-1]

    root = Path(__file__).resolve().parent.parent
    code = (
        "import json\n"
        "from repro.sim.checkpoint import CheckpointSession, load_checkpoint\n"
        f"from tests.test_checkpoint import {build.__name__} as build\n"
        "from tests.test_sim_fuzz import _report_blob\n"
        f"ck = load_checkpoint({str(artifact)!r})\n"
        "session = CheckpointSession(resume=ck)\n"
        "eng, arr = build(session=session)\n"
        "rep = eng.run('IGNORED')\n"
        "print(json.dumps({'blob': _report_blob(rep), 'arr': arr.tolist(),"
        " 'resumed': session.resumed_from}))\n"
    )
    env = dict(os.environ, PYTHONPATH=f"{root}{os.pathsep}{root / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["blob"] == blob0
    assert out["arr"] == arr0.tolist()
    assert out["resumed"] == load_checkpoint(artifact).cid


# ---------------------------------------------------------------------------
# watchdog post-mortem resume (satellite: resume with a larger budget)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("machine", sorted(_BUILDERS))
def test_watchdog_checkpoint_resumes_with_larger_budget(machine):
    build = _BUILDERS[machine]
    eng0, arr0 = build()
    rep0 = eng0.run("test")

    eng1, _ = build(record=True)
    with pytest.raises(WatchdogExceeded) as exc_info:
        eng1.run("test", budget=40)
    post_mortem = exc_info.value.checkpoint
    assert post_mortem is not None

    eng2, arr2 = build()
    eng2.resume(pickle.loads(pickle.dumps(post_mortem)))
    rep2 = eng2.run("IGNORED")
    assert _report_blob(rep2) == _report_blob(rep0)
    assert np.array_equal(arr2, arr0)


def test_watchdog_without_recording_has_no_checkpoint():
    eng, _ = build_smp()  # record=False: no resume log, no post-mortem
    with pytest.raises(WatchdogExceeded) as exc_info:
        eng.run("test", budget=40)
    assert exc_info.value.checkpoint is None


def test_watchdog_artifact_persisted_by_session(tmp_path):
    store = CheckpointStore(tmp_path)
    session = CheckpointSession(store=store)
    eng, _ = build_mta(session=session)
    with pytest.raises(WatchdogExceeded) as exc_info:
        eng.run("test", budget=40)
    path = exc_info.value.checkpoint_path
    assert path is not None and Path(path).is_file()

    resume = CheckpointSession(resume=load_checkpoint(path))
    eng2, arr2 = build_mta(session=resume)
    rep2 = eng2.run("IGNORED")
    eng0, arr0 = build_mta()
    assert _report_blob(rep2) == _report_blob(eng0.run("test"))
    assert np.array_equal(arr2, arr0)


# ---------------------------------------------------------------------------
# sessions spanning several runs
# ---------------------------------------------------------------------------


def _session_two_phase(session, names=("alpha", "beta")):
    e1, _ = build_smp(session=session)
    r1 = e1.run(names[0])
    e2, _ = build_smp(session=session)
    r2 = e2.run(names[1])
    return r1, r2


def test_session_replays_completed_runs(tmp_path):
    base1, base2 = _session_two_phase(CheckpointSession())

    store = CheckpointStore(tmp_path)
    session = CheckpointSession(every=25, store=store, job={"key": "k" * 64})
    _session_two_phase(session)
    newest = store.newest_for("k" * 64)
    header = read_header(newest)
    assert header["run_index"] == 1 and header["run_name"] == "beta"

    resume = CheckpointSession(resume=load_checkpoint(newest))
    got1, got2 = _session_two_phase(resume)
    assert resume.replayed_runs == 1  # run "alpha" came from the stored log
    assert resume.resumed_from is not None
    assert _report_blob(got1) == _report_blob(base1)
    assert _report_blob(got2) == _report_blob(base2)


def test_session_rejects_run_name_mismatch(tmp_path):
    store = CheckpointStore(tmp_path)
    session = CheckpointSession(every=25, store=store, job={"key": "k" * 64})
    _session_two_phase(session)

    resume = CheckpointSession(resume=load_checkpoint(store.newest_for("k" * 64)))
    eng, _ = build_smp(session=resume)
    with pytest.raises(CheckpointError, match="resume mismatch"):
        eng.run("WRONG-NAME")


def test_session_rejects_setup_mismatch(tmp_path):
    store = CheckpointStore(tmp_path)
    session = CheckpointSession(every=25, store=store, job={"key": "k" * 64})
    _session_two_phase(session)

    resume = CheckpointSession(resume=load_checkpoint(store.newest_for("k" * 64)))
    eng, _ = build_mta(session=resume)  # different workload entirely
    with pytest.raises(CheckpointError, match="setup"):
        eng.run("alpha")


def test_session_allows_one_run_per_kernel():
    session = CheckpointSession()
    eng, _ = build_smp(session=session)
    eng.run("alpha")
    with pytest.raises(CheckpointError, match="one run per kernel"):
        eng.run("beta")


# ---------------------------------------------------------------------------
# stale-artifact rejection: every mismatch fails closed
# ---------------------------------------------------------------------------


def _write_artifact(tmp_path) -> Path:
    store = CheckpointStore(tmp_path)
    session = CheckpointSession(every=100, store=store, should_stop=lambda: True)
    eng, _ = build_mta(session=session)
    with pytest.raises(RunPaused):
        eng.run("test")
    return session.written[-1]


def _tamper_header(path: Path, mutate) -> Path:
    raw = path.read_bytes()
    head, body = raw.split(b"\n", 1)
    header = json.loads(head)
    mutate(header)
    out = path.with_name("tampered.ckpt")
    out.write_bytes(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + body
    )
    return out


def test_loads_cleanly_before_tampering(tmp_path):
    ck = load_checkpoint(_write_artifact(tmp_path))
    assert ck.state is not None and ck.runs == []
    assert ck.header["machine"] == "mta" and ck.header["p"] == 2


def test_rejects_changed_code_digest(tmp_path):
    path = _write_artifact(tmp_path)

    def mutate(h):
        h["code"]["repro.sim.kernel"] = "0" * 64

    with pytest.raises(CheckpointError, match="different code"):
        load_checkpoint(_tamper_header(path, mutate))


def test_rejects_state_version_mismatch(tmp_path):
    path = _write_artifact(tmp_path)
    with pytest.raises(CheckpointError, match="state version"):
        load_checkpoint(
            _tamper_header(path, lambda h: h.update(state_version=999_999))
        )


def test_rejects_unknown_container_format(tmp_path):
    path = _write_artifact(tmp_path)
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(_tamper_header(path, lambda h: h.update(format=999)))


def test_rejects_corrupt_payload(tmp_path):
    path = _write_artifact(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])  # truncate the compressed payload
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)


def test_rejects_non_artifact_file(tmp_path):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint\nat all")
    with pytest.raises(CheckpointError):
        load_checkpoint(junk)
    with pytest.raises(CheckpointError):
        read_header(junk)
    wrong_magic = tmp_path / "magic.ckpt"
    wrong_magic.write_bytes(b'{"magic": "something-else"}\npayload')
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load_checkpoint(wrong_magic)


def test_kernel_rejects_wrong_machine_and_setup(tmp_path):
    eng1, _ = build_mta(record=True)
    state = _pause_state(eng1, 50)
    assert state is not None

    eng_smp, _ = build_smp()
    with pytest.raises(CheckpointError, match="machine"):
        eng_smp.resume(state)

    other = MTAEngine(p=4)  # same machine kind, different configuration
    with pytest.raises(CheckpointError, match="p="):
        other.resume(state)

    # same machine and thread layout, but a different declared setup
    # (extra counter) — the setup digest must reject the restore
    variant, _ = build_mta()
    variant.set_counter(999, 7)
    with pytest.raises(CheckpointError, match="setup"):
        variant.resume(state)


def test_smp_resume_rejects_old_machine_state_version_before_replay():
    """An SMP snapshot from before the one-entry-per-level cache state
    (machine state version 1) is refused before any generator advances."""
    eng0, _ = build_smp(record=True)
    state = _pause_state(eng0, 20)
    assert state is not None and state["machine_state_version"] == 2

    stale_eng, stale_arr = build_smp()
    with pytest.raises(CheckpointError, match="machine-state version 1"):
        stale_eng.resume(dict(state, machine_state_version=1))
    assert not stale_arr.any()  # the generators' side effects never ran

    # the untampered snapshot does replay them
    eng, arr = build_smp()
    eng.resume(state)
    assert arr.any()


def test_cache_hierarchy_rejects_version_1_state():
    from repro.arch.cache import CacheHierarchy
    from repro.core.smp_machine import SUN_E4500

    state = CacheHierarchy(SUN_E4500.l1, SUN_E4500.l2).to_state()
    with pytest.raises(CheckpointError, match="cache state version 1"):
        CacheHierarchy.from_state(dict(state, version=1))


# ---------------------------------------------------------------------------
# store mechanics
# ---------------------------------------------------------------------------


def test_store_resolve_and_rm(tmp_path):
    path = _write_artifact(tmp_path)
    store = CheckpointStore(tmp_path)
    cid = path.stem
    assert store.resolve(cid[:12]) == path
    assert store.resolve(str(path)) == path
    with pytest.raises(CheckpointError, match="no checkpoint"):
        store.resolve("ffff" * 16)
    assert store.rm(cid[:12]) == path
    assert not path.exists()


def test_store_newest_for_prefers_most_advanced(tmp_path):
    store = CheckpointStore(tmp_path)
    key = "j" * 64
    session = CheckpointSession(every=20, store=store, job={"key": key})
    eng, _ = build_smp(session=session)
    eng.run("test")
    assert len(session.written) >= 2
    newest = store.newest_for(key)
    best = max(read_header(p)["progress"].get("steps", 0) for p in session.written)
    assert read_header(newest)["progress"].get("steps", 0) == best
    assert store.newest_for("nope" * 16) is None
