"""The job-record path: keys, stored files, replays and the work per job.

A finished job's record is hashed under ``Job.key()``, stored by
``SweepCache.put``, read back by ``SweepCache.get`` and written out by
``JobResult.jsonl()``.  Those bytes and keys may never change, so they
are pinned here against the reference encoder of
``tests/test_canonical_json.py`` and against ``tests/golden/job_keys.json``
(keys of a fixed job set with ``code_version`` pinned).  The amount of
work per job is pinned by counts: one key hash per job, cold or warm,
one read per warm job, one encode of a cold job's record and none of a
warm one's, and no pure-Python JSON encoder on a store.

To regenerate the key golden after an *intended* change to the key::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_record_path.py

then review the diff like any other code change.
"""

from __future__ import annotations

import json
import math
import os
import pathlib

import numpy as np
import pytest

import repro.backends.analytic as analytic
import repro.core.cache as cache_mod
from repro.backends import Workload, create
from repro.backends.base import _jsonable, canonical_json
from repro.backends.kernels import extras_from_run
from repro.cli import main
from repro.core.cache import SweepCache
from repro.core.runner import Job, derive_seed, run_jobs, write_jsonl
from repro.errors import ConfigurationError

from .test_canonical_json import _reference_plain, reference_json

GOLDEN = pathlib.Path(__file__).parent / "golden" / "job_keys.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

_SMALL_LIST = {"n": 256, "list": "random"}

#: One record each of the shapes the store must keep byte for byte:
#: int-keyed ``fa_sites`` (mta-engine), NumPy stats (both rank models),
#: an SMP engine CC run and a nested divergence report (cost-xval).
RECORD_JOBS = [
    Job(Workload("rank", 2, 3, _SMALL_LIST, {"streams_per_proc": 8}), "mta-engine"),
    Job(Workload("rank", 4, 3, {"n": 4096}), "mta-model"),
    Job(Workload("rank", 4, 3, {"n": 4096}), "smp-model"),
    Job(Workload("cc", 2, 3, {"graph": "random", "n": 64, "m": 192}), "smp-engine"),
    Job(
        Workload("cc", 4, 1, {"graph": "random", "n": 96, "m": 192},
                 {"machine": "smp", "variant": "branchy", "max_iter": 64}),
        "cost-xval",
    ),
]

_TABLE1_OPTS = {"streams_per_proc": 100, "nodes_per_walk": 10}

#: Jobs whose keys are pinned: with and without a ``checkpoint`` option
#: (which the key leaves out, mapping or not), with backend options,
#: NumPy values, tuples and non-str dict keys in the workload.
KEY_JOBS = [
    Job(Workload("rank", 4, 7, {"n": 8000, "list": "random"}, _TABLE1_OPTS), "mta-engine"),
    Job(
        Workload("rank", 4, 7, {"n": 8000, "list": "random"},
                 dict(_TABLE1_OPTS, checkpoint={"every": 5000, "dir": "ckpts", "key": "k"})),
        "mta-engine",
        tags={"list": "random", "p": 4},
    ),
    Job(Workload("rank", 2, 3, {"n": 256}), "smp-model",
        backend_options={"config": {"clock_hz": 4.0e8, "l2": {"size_words": 1 << 18}}}),
    Job(Workload("rank", 2, 3, {"n": 256}, {"checkpoint": {"every": 100}}), "smp-engine",
        backend_options={"config": {"max_p": 8}}),
    Job(
        Workload("cc", 4, np.int64(9), {"graph": "rmat", "scale": np.int64(8), "edge_factor": 4},
                 {"instrument_p": 1, "weights": (1, 2.5, None), "flags": [True, False]}),
        "mta-model",
    ),
    Job(
        Workload("cc", 4, 1, {"graph": "random", "n": 96, "m": 192},
                 {"machine": "smp", "variant": "branchy", "max_iter": 64,
                  "penalty": float("nan")}),
        "cost-xval",
    ),
    Job(Workload("tree", 1, 0, {"n": 100}, {"table": {1: "a", 10: "b"},
                                            "ratio": np.float64(0.1)}),
        "cluster-model", backend_options={"bins": np.arange(3), 2: "two"}),
    Job(Workload("rank", 1, 0, {}, {"checkpoint": 1}), "mta-next-engine"),
]

SEED_PARTS = [
    (5, "table1_rank", {"n": 2000, "list": "random"}),
    (20050615, "cc_xval", 0, {"graph": "random", "n": 1024, "m": 4096}),
    (3, "service_mix", (1, 2), np.int64(4)),
]


@pytest.fixture
def pinned_code_version(monkeypatch):
    monkeypatch.setattr(cache_mod, "code_version", lambda: "code-version-pinned")


# -- stored bytes -------------------------------------------------------------


def test_stored_files_are_the_records(tmp_path):
    cache = SweepCache(tmp_path)
    results = run_jobs(RECORD_JOBS, workers=1, cache=cache)
    assert "fa_sites" in results[0].detail
    assert isinstance(results[1].stats["lengths"], list)
    assert isinstance(results[2].stats["lengths"], list)
    assert "xval" in results[4].detail
    for r in results:
        stored = cache._path(r.key).read_bytes()
        assert stored == r.jsonl().encode() == reference_json(r.record).encode()
        text = cache.get(r.key)
        assert text == r.jsonl() and json.loads(text) == r.record
    replay = run_jobs(RECORD_JOBS, workers=1, cache=cache)
    assert all(r.cached for r in replay)
    assert write_jsonl(replay) == write_jsonl(results)


def test_pool_stores_the_reference_bytes(tmp_path):
    serial = run_jobs(RECORD_JOBS, workers=1, cache=False)
    cache = SweepCache(tmp_path)
    pooled = run_jobs(RECORD_JOBS, workers=2, cache=cache)
    for r in pooled:
        stored = cache._path(r.key).read_bytes()
        assert stored == r.jsonl().encode() == reference_json(r.record).encode()
    assert write_jsonl(pooled) == write_jsonl(serial)


def test_put_writes_the_reference_bytes(tmp_path):
    cache = SweepCache(tmp_path)
    record = {"b": [1, 2.5, None, True], "a": {"z": "é", "y": float("inf")}, "s": "x\n"}
    cache.put("ab" * 32, canonical_json(record))
    assert cache._path("ab" * 32).read_bytes() == reference_json(record).encode()
    assert cache.get("ab" * 32) == reference_json(record)


# -- keys ---------------------------------------------------------------------


def test_job_keys_match_golden(pinned_code_version):
    got = {
        "keys": [job.key() for job in KEY_JOBS],
        "seeds": [derive_seed(*parts) for parts in SEED_PARTS],
    }
    if REGEN:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    assert got == json.loads(GOLDEN.read_text()), (
        "job keys deviate from job_keys.json; every cache entry and checkpoint"
        " key moves with them"
    )
    assert got["keys"][0] == got["keys"][1]  # the checkpoint option is not hashed
    assert got["keys"][7] == Job(Workload("rank", 1, 0, {}), "mta-next-engine").key()


def test_key_for_agrees_with_job_key(pinned_code_version):
    for job in KEY_JOBS:
        key = SweepCache.key_for(
            job.workload.canonical(), job.backend, dict(job.backend_options)
        )
        assert key == job.key()


# -- work per job -------------------------------------------------------------


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Job.key``, ``SweepCache.get`` and the pure-Python
    JSON encoder (``json.encoder._make_iterencode``)."""
    seen = {"key": 0, "get": 0, "iterencode": 0}
    key, get = Job.key, SweepCache.get
    make_iterencode = json.encoder._make_iterencode

    def counted_key(self):
        seen["key"] += 1
        return key(self)

    def counted_get(self, k):
        seen["get"] += 1
        return get(self, k)

    def counted_make_iterencode(*args, **kwargs):
        seen["iterencode"] += 1
        return make_iterencode(*args, **kwargs)

    monkeypatch.setattr(Job, "key", counted_key)
    monkeypatch.setattr(SweepCache, "get", counted_get)
    monkeypatch.setattr(json.encoder, "_make_iterencode", counted_make_iterencode)
    return seen


_COUNT_JOBS = [
    Job(Workload("rank", 2, s, _SMALL_LIST), "smp-model") for s in range(3)
] + [Job(Workload("rank", 2, 0, _SMALL_LIST), "smp-engine")]


@pytest.mark.parametrize("checkpoint", [None, {"every": 10**9}], ids=["plain", "checkpoint"])
def test_each_job_is_hashed_once_and_read_once(tmp_path, counts, checkpoint):
    cache = SweepCache(tmp_path / "cache")
    n = len(_COUNT_JOBS)
    cold = run_jobs(_COUNT_JOBS, workers=1, cache=cache, checkpoint=checkpoint)
    assert counts == {"key": n, "get": n, "iterencode": 0}
    assert cache.stores == n
    counts.update(key=0, get=0)
    warm = run_jobs(_COUNT_JOBS, workers=1, cache=cache, checkpoint=checkpoint)
    assert counts == {"key": n, "get": n, "iterencode": 0}
    assert all(r.cached for r in warm)
    assert [r.key for r in warm] == [r.key for r in cold] == [j.key() for j in _COUNT_JOBS]


@pytest.fixture
def record_encodes(monkeypatch):
    """Job records (dicts holding a ``summary``) passed to the JSON
    encoder, by ``canonical_json``, ``json.dumps`` or any other caller."""
    seen = []
    encode = json.JSONEncoder.encode

    def counted_encode(self, o):
        if isinstance(o, dict) and "summary" in o:
            seen.append(o)
        return encode(self, o)

    monkeypatch.setattr(json.JSONEncoder, "encode", counted_encode)
    return seen


def test_a_record_is_encoded_once_cold_and_never_warm(tmp_path, record_encodes):
    cache = SweepCache(tmp_path)
    cold = write_jsonl(run_jobs(_COUNT_JOBS, workers=1, cache=cache))
    assert len(record_encodes) == len(_COUNT_JOBS)
    record_encodes.clear()
    warm = write_jsonl(run_jobs(_COUNT_JOBS, workers=1, cache=cache))
    assert record_encodes == []
    assert warm == cold


def test_uncached_run_hashes_only_for_checkpoints(counts):
    run_jobs(_COUNT_JOBS[:1], workers=1, cache=False)
    assert counts["key"] == 0
    results = run_jobs(_COUNT_JOBS[3:], workers=1, cache=False, checkpoint={"every": 10**9})
    assert counts["key"] == 1
    assert results[0].key == ""


# -- NumPy values -------------------------------------------------------------


def _typed(value):
    """``value`` with every leaf tagged by its type (NaN-safe compare)."""
    if isinstance(value, dict):
        return ("dict", [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, value)


@pytest.mark.parametrize(
    "value",
    [
        np.arange(6),
        np.array([1.5, np.nan, np.inf, -np.inf]),
        np.array([True, False]),
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.array([[1, 2], [3, 4]], dtype=np.int16),
        np.array([{3: "a"}, {"b": np.int8(1)}, None], dtype=object),
        np.array([[np.int64(1), "s"], [2.5, None]], dtype=object),
        np.zeros(0),
        np.int64(7),
        np.float32(0.1),
        np.float64("nan"),
        np.bool_(True),
        {"lengths": np.arange(4), "loads": np.ones(2), "n": np.int32(3), 5: (np.int8(1),)},
        [np.arange(2), (np.float64(2.0), {"k": np.array([np.nan])})],
    ],
    ids=repr,
)
def test_jsonable_matches_per_element_recursion(value):
    assert _typed(_jsonable(value)) == _typed(_reference_plain(value))


def test_longdouble_is_coerced_to_float():
    value = np.longdouble(64.5)
    typed = Workload("rank", 2, 0, {"n": value, "w": np.array([value, value])})
    plain = Workload("rank", 2, 0, {"n": 64.5, "w": [64.5, 64.5]})
    assert _typed(typed.canonical()) == _typed(plain.canonical())
    assert Job(typed, "smp-model").key() == Job(plain, "smp-model").key()
    assert canonical_json([value, np.array([value])]) == "[64.5,[64.5]]"


def test_clongdouble_is_a_configuration_error():
    value = np.clongdouble(1 + 2j)
    workload = Workload("rank", 2, 0, {"n": 64}, {"w": value})
    for encode in (
        lambda: Job(workload, "smp-model").key(),
        workload.canonical,
        lambda: canonical_json({"w": [value]}),
    ):
        with pytest.raises(ConfigurationError, match=r"1\+2j"):
            encode()


def _reference_extras(run) -> dict:
    """``extras_from_run`` over the per-element reference copy."""
    extras: dict = {}
    for attr in ("iterations", "levels", "rounds", "n_edges", "value"):
        v = getattr(run, attr, None)
        if v is not None and not callable(v):
            extras[attr] = _reference_plain(v)
    triplet = getattr(run, "triplet", None)
    if triplet is not None:
        extras["t_m"] = float(triplet.t_m)
        extras["t_c"] = float(triplet.t_c)
        extras["barriers"] = int(triplet.b)
    stats = getattr(run, "stats", None)
    if stats:
        extras["stats"] = _reference_plain(dict(stats))
    return extras


@pytest.mark.parametrize("backend", ["mta-model", "smp-model"])
def test_extras_from_run_matches_reference(monkeypatch, backend):
    runs = []
    monkeypatch.setattr(
        analytic, "extras_from_run", lambda run: runs.append(run) or extras_from_run(run)
    )
    create(backend).run(Workload("rank", 4, 3, {"n": 16384}))
    [run] = runs
    assert any(isinstance(v, np.ndarray) for v in run.stats.values())
    assert _typed(extras_from_run(run)) == _typed(_reference_extras(run))


# -- stored values that are not records ---------------------------------------

NOT_RECORDS = ["[1, 2]", '"x"', "{}", '{"summary": 3}', "null", "{not json", ""]


def _overwrite_rows(root: pathlib.Path, text: str) -> int:
    files = sorted(root.glob("rows/*/*.json"))
    for path in files:
        path.write_text(text)
    return len(files)


@pytest.mark.parametrize("text", NOT_RECORDS)
def test_run_jobs_recomputes_a_stored_non_record(tmp_path, text):
    jobs = _COUNT_JOBS[:2]
    cache = SweepCache(tmp_path)
    fresh = write_jsonl(run_jobs(jobs, workers=1, cache=cache))
    assert _overwrite_rows(tmp_path, text) == 2
    cache = SweepCache(tmp_path)
    results = run_jobs(jobs, workers=1, cache=cache)
    assert not any(r.cached for r in results)
    assert write_jsonl(results) == fresh
    assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)
    for r in results:
        assert cache._path(r.key).read_text() == r.jsonl()
    assert all(r.cached for r in run_jobs(jobs, workers=1, cache=cache))


@pytest.mark.parametrize("text", NOT_RECORDS[:3])
def test_cli_recomputes_a_stored_non_record(tmp_path, capsys, text):
    cache_dir = str(tmp_path / "cache")
    run_argv = ["run", "--workload", "rank", "--backend", "smp-model", "--n", "256",
                "--p", "2", "--cache-dir", cache_dir]
    sweep_argv = ["sweep", "--spec", "fig1-tiny", "--cache-dir", cache_dir]
    assert main(run_argv) == 0
    run_fresh = capsys.readouterr().out
    assert main(sweep_argv) == 0
    sweep_fresh = capsys.readouterr().out
    assert _overwrite_rows(tmp_path / "cache", text) == 17
    assert main(run_argv) == 0
    assert capsys.readouterr().out == run_fresh
    assert main(sweep_argv) == 0
    out, err = capsys.readouterr()
    assert out == sweep_fresh
    assert "cache: 0/16 hits (16 stored)" in err
    assert main(sweep_argv) == 0
    assert "cache: 16/16 hits" in capsys.readouterr().err


def test_service_recomputes_a_stored_non_record(tmp_path):
    from .test_service import Harness, rank_body

    h = Harness(cache=str(tmp_path / "cache"), job_workers=0).start()
    try:
        c = h.client()
        first = c.wait(c.submit(rank_body())["id"], timeout=30)
        assert _overwrite_rows(tmp_path / "cache", "[1, 2]") == 1
        second = c.wait(c.submit(rank_body())["id"], timeout=30)
        assert second["state"] == "done"
        assert second["result"]["jobs_fresh"] == 1
        assert second["results_jsonl"] == first["results_jsonl"]
    finally:
        h.stop()

