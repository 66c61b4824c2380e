"""Tests for the on-disk sweep-result cache (repro.core.cache)."""

import json

import pytest

import repro.core.runner as runner_mod
from repro.backends import Workload
from repro.core import Job, SweepCache, code_version, run_jobs


def _job(seed=0, n=64):
    return Job(Workload("rank", 2, seed, {"n": n, "list": "random"}), "smp-model")


class TestSweepCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        text = '{"backend":"smp-model","summary":{"cycles":1.0}}'
        cache.put("ab" * 32, text)
        assert cache.get("ab" * 32) == text
        assert cache.hits == 1 and cache.stores == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_record_is_miss_and_overwritable(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "ef" * 32
        cache.put(key, '{"ok":1}')
        path = cache._path(key)
        path.write_bytes(b'{"ok":\xff}')  # not UTF-8
        assert cache.get(key) is None
        cache.put(key, '{"ok":2}')
        assert cache.get(key) == '{"ok":2}'

    def test_sharded_layout(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "12" + "0" * 62
        cache.put(key, "{}")
        assert (tmp_path / "rows" / "12" / f"{key}.json").exists()

    def test_no_tmp_droppings(self, tmp_path):
        cache = SweepCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 62, f'{{"i":{i}}}')
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stats_line(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get("00" * 32)
        assert "0/1 hits" in cache.stats_line()


class TestTextStore:
    """``SweepCache`` stores and serves text; it never parses it."""

    def test_text_round_trips_byte_for_byte(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "ab" * 32
        for text in ('{"a":"\\u00e9","b":[1,NaN]}', "é\n", "{not json", "null"):
            cache.put(key, text)
            assert cache._path(key).read_bytes() == text.encode()
            assert cache.get(key) == text
        assert (cache.hits, cache.misses, cache.stores) == (4, 0, 4)

    @pytest.mark.parametrize("spoil", ["empty", "unreadable", "non-utf8"])
    def test_spoiled_file_is_a_miss(self, tmp_path, spoil):
        cache = SweepCache(tmp_path)
        path = cache._path("ab" * 32)
        if spoil == "unreadable":
            path.mkdir(parents=True)  # opening a directory fails
        else:
            cache.put("ab" * 32, "{}")
            path.write_bytes(b"" if spoil == "empty" else b"\xff\xfe{}")
        assert cache.get("ab" * 32) is None
        assert (cache.hits, cache.misses) == (0, 1)


class TestCacheKey:
    def test_key_depends_on_workload(self):
        assert _job(seed=0).key() != _job(seed=1).key()
        assert _job(n=64).key() != _job(n=128).key()

    def test_key_depends_on_backend(self):
        w = Workload("rank", 2, 0, {"n": 64, "list": "random"})
        assert Job(w, "smp-model").key() != Job(w, "mta-model").key()

    def test_key_depends_on_code_version(self, monkeypatch):
        import repro.core.cache as cache_mod

        before = _job().key()
        monkeypatch.setattr(cache_mod, "_code_version_memo", "deadbeef")
        assert _job().key() != before

    def test_code_version_is_memoized_and_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)
        assert len(code_version()) == 64


class TestWarmRerunExecutesNothing:
    """The ISSUE's acceptance gate: a warm-cache rerun performs no
    input generation and no algorithm execution at all."""

    def test_second_run_never_calls_execute(self, tmp_path, monkeypatch):
        jobs = [_job(seed=s) for s in range(3)]
        cache = SweepCache(tmp_path / "cache")
        cold = run_jobs(jobs, cache=cache)
        assert [r.cached for r in cold] == [False] * 3

        def boom(payload):
            raise AssertionError("algorithm executed on a warm cache")

        monkeypatch.setattr(runner_mod, "_execute_payload", boom)
        warm = run_jobs(jobs, cache=cache)
        assert [r.cached for r in warm] == [True] * 3
        assert [r.record for r in warm] == [r.record for r in cold]

    def test_cache_false_always_executes(self, tmp_path, monkeypatch):
        job = _job()
        calls = []
        real = runner_mod._execute_payload
        monkeypatch.setattr(
            runner_mod,
            "_execute_payload",
            lambda payload: calls.append(1) or real(payload),
        )
        run_jobs([job], cache=False)
        run_jobs([job], cache=False)
        assert len(calls) == 2

    def test_partial_warm_executes_only_misses(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path / "cache")
        run_jobs([_job(seed=0)], cache=cache)

        executed = []
        real = runner_mod._execute_payload
        monkeypatch.setattr(
            runner_mod,
            "_execute_payload",
            lambda payload: executed.append(payload["workload"]["seed"]) or real(payload),
        )
        results = run_jobs([_job(seed=0), _job(seed=1)], cache=cache)
        assert executed == [1]
        assert [r.cached for r in results] == [True, False]

    def test_cached_record_matches_disk_bytes(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        [cold] = run_jobs([_job()], cache=cache)
        on_disk = json.loads(cache._path(cold.key).read_text(encoding="utf-8"))
        assert on_disk == cold.record

    def test_key_depends_on_workload_options(self):
        a = Workload("cc", 4, 0, {"n": 64, "m": 192, "graph": "random"})
        b = Workload("cc", 4, 0,
                     {"n": 64, "m": 192, "graph": "random"},
                     options={"streams_per_proc": 8})
        c = Workload("cc", 4, 0,
                     {"n": 64, "m": 192, "graph": "random"},
                     options={"streams_per_proc": 16})
        keys = {Job(w, "mta-engine").key() for w in (a, b, c)}
        assert len(keys) == 3
