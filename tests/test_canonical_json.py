"""``canonical_json`` and ``JobResult.jsonl()`` keep their bytes.

Those bytes are the hash input of ``SweepCache.key_for``,
``derive_seed``, service digests and checkpoint keys, and the text of
every stored record, so they may never change.  The reference below is
the encoder they were defined by: a recursive copy into plain JSON types
(every dict key written as ``str(key)``, sorted by that text), then
``json.dumps`` with sorted keys and no whitespace.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

import numpy as np
import pytest

from repro.backends import Workload, names
from repro.backends.base import canonical_json
from repro.core import runner
from repro.core.cache import SweepCache
from repro.core.runner import Job, derive_seed, run_jobs


def _reference_plain(value):
    if isinstance(value, dict):
        return {str(k): _reference_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_plain(v) for v in value]
    if not isinstance(value, (str, bytes)):
        if hasattr(value, "tolist"):
            return _reference_plain(value.tolist())
        if hasattr(value, "item"):
            try:
                return value.item()
            except (AttributeError, ValueError):
                pass
    return value


def reference_json(obj) -> str:
    return json.dumps(_reference_plain(obj), sort_keys=True, separators=(",", ":"))


_SMALL_LIST = {"n": 256, "list": "random"}
_SMALL_GRAPH = {"graph": "random", "n": 64, "m": 192}

#: One small job per registered backend, plus the records whose bytes
#: are hardest to keep: mta-engine rank (int-keyed ``fa_sites`` before
#: the runner's round trip), cost-xval (a nested divergence report) and
#: the SMP model's trace mode.
JOBS = [
    Job(Workload("rank", 2, 3, _SMALL_LIST), "cluster-model"),
    Job(Workload("rank", 2, 3, _SMALL_LIST), "mta-model"),
    Job(Workload("cc", 2, 3, _SMALL_GRAPH), "mta-model"),
    Job(Workload("rank", 2, 3, _SMALL_LIST), "smp-model"),
    Job(Workload("rank", 2, 3, {"n": 2048}, {"collect_traces": 1}), "smp-model"),
    Job(Workload("rank", 2, 3, _SMALL_LIST), "smp-engine"),
    Job(Workload("rank", 2, 3, _SMALL_LIST, {"streams_per_proc": 8}), "mta-engine"),
    Job(Workload("cc", 2, 3, _SMALL_GRAPH, {"streams_per_proc": 8}), "mta-engine"),
    Job(Workload("rank", 2, 3, _SMALL_LIST, {"streams_per_proc": 8}), "mta-next-engine"),
    Job(
        Workload("cc", 4, 1, {"graph": "random", "n": 96, "m": 192},
                 {"machine": "smp", "variant": "branchy", "max_iter": 64}),
        "cost-xval",
    ),
]


def test_every_registered_backend_is_covered():
    assert {job.backend for job in JOBS} == set(names())


@pytest.fixture
def encoded(monkeypatch):
    """Every ``(input, output)`` pair of ``canonical_json`` inside the runner."""
    seen = []

    def recording(obj):
        out = canonical_json(obj)
        seen.append((obj, out))
        return out

    monkeypatch.setattr(runner, "canonical_json", recording)
    return seen


def test_run_jobs_records_match_reference(encoded):
    results = run_jobs(JOBS, workers=1, cache=False)
    raw = [obj for obj, _ in encoded if isinstance(obj, dict) and "summary" in obj]
    assert len(raw) == len(JOBS)
    fa_sites = raw[6]["summary"]["detail"]["fa_sites"]
    assert fa_sites and all(isinstance(k, int) for k in fa_sites)
    assert "xval" in raw[-1]["summary"]["detail"]
    for obj, out in encoded:
        assert out == reference_json(obj)
    for result in results:
        assert result.jsonl() == reference_json(result.record)
        assert result.jsonl() == canonical_json(result.record)


def test_cache_replays_match_reference(tmp_path):
    cache = SweepCache(tmp_path)
    fresh = run_jobs(JOBS[:4] + JOBS[6:7], workers=1, cache=cache)
    replay = run_jobs(JOBS[:4] + JOBS[6:7], workers=1, cache=cache)
    assert all(r.cached for r in replay)
    for a, b in zip(fresh, replay, strict=True):
        assert b.jsonl() == a.jsonl() == reference_json(b.record)
        assert b.key == a.key == SweepCache.key_for(
            a.job.workload.canonical(), a.job.backend, {}
        )


@pytest.mark.parametrize(
    "value",
    [
        np.int64(7),
        np.int32(-3),
        np.float64(0.1),
        np.float32(0.1),
        np.float64("nan"),
        np.float64("inf"),
        -np.float32("inf"),
        np.bool_(True),
        np.arange(5),
        np.array([[1.5, np.nan], [np.inf, -np.inf]]),
        np.array([True, False]),
        np.array([{3: "a"}, {"b": np.int8(1)}], dtype=object),
        [np.float64(1.5), np.int16(2), np.bool_(False), float("nan")],
        (1, (2.5, None), [True, "x"]),
        {"t": (np.int64(1), 2), "a": np.zeros(3)},
        {1: "a", 10: "b", 9: "c"},
        {np.int64(12): 1, np.int64(3): 2},
        {True: 1, None: 2, "k": 3},
        {1.5: "f", 2: "i"},
        {"1": "str", 1: "int"},
        OrderedDict([(2, "x"), (10, "y")]),
        {"outer": [{"inner": {5: [1, 2], 40: (3,)}}]},
        {"fa_sites": {4096: (3, 1), 17: (1, 0)}, "cycles": np.float64(12.0)},
        "text",
        12,
        2.5,
        None,
        False,
    ],
    ids=repr,
)
def test_values_match_reference(value):
    assert canonical_json(value) == reference_json(value)


def test_non_json_values_are_refused_alike():
    for value in (b"bytes", {"a": object()}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            reference_json(value)
        with pytest.raises(TypeError):
            canonical_json(value)


def test_seeds_and_keys_are_unchanged():
    digest = hashlib.sha256(reference_json([5, ["service_mix", 3, (1, 2)]]).encode())
    expected = int.from_bytes(digest.digest()[:8], "big") % (1 << 62)
    assert derive_seed(5, "service_mix", 3, (1, 2)) == expected
    wl = Workload("rank", 4, np.int64(9), {"n": np.int64(64)}, {"algorithm": "wyllie"})
    job = Job(wl, "smp-model")
    assert canonical_json(job.payload()) == reference_json(job.payload())

