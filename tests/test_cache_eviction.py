"""Tests for the sweep cache's size/entry caps and LRU eviction."""

import os

import pytest

from repro.cli import main
from repro.core import SweepCache
from repro.errors import ConfigurationError


def _fill(cache, count, start=0, size=0):
    """Store ``count`` records with strictly increasing mtimes."""
    pad = "x" * size
    for i in range(start, start + count):
        key = f"{i:02x}" + "0" * 62
        cache.put(key, f'{{"i":{i},"pad":"{pad}"}}')
        # decouple LRU order from filesystem timestamp resolution
        os.utime(cache._path(key), (1_000_000 + i, 1_000_000 + i))
    return [f"{i:02x}" + "0" * 62 for i in range(start, start + count)]


class TestEntryCap:
    def test_put_evicts_oldest_beyond_cap(self, tmp_path):
        cache = SweepCache(tmp_path, max_entries=3)
        keys = _fill(cache, 3)
        newest = "aa" + "0" * 62
        cache.put(newest, '{"i":99}')
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(newest) == '{"i":99}'
        assert cache.evictions == 1

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = SweepCache(tmp_path)
        _fill(cache, 10)
        assert len(cache.entries()) == 10
        assert cache.evictions == 0

    def test_get_refreshes_recency(self, tmp_path):
        cache = SweepCache(tmp_path, max_entries=3)
        keys = _fill(cache, 3)
        assert cache.get(keys[0]) is not None  # touch: now most recent
        cache.put("bb" + "0" * 62, '{"i":99}')
        assert cache.get(keys[0]) is not None  # survived
        assert cache.get(keys[1]) is None  # true LRU went instead

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SweepCache(tmp_path, max_entries=-1)
        with pytest.raises(ConfigurationError):
            SweepCache(tmp_path, max_bytes=-5)


class TestByteCap:
    def test_evicts_down_to_byte_budget(self, tmp_path):
        cache = SweepCache(tmp_path)
        _fill(cache, 6, size=200)
        per_record = cache.entries()[0][2]
        capped = SweepCache(tmp_path, max_bytes=3 * per_record)
        evicted, freed = capped.prune()
        assert evicted == 3
        assert freed == 3 * per_record
        assert capped.size_bytes() <= 3 * per_record

    def test_oldest_go_first(self, tmp_path):
        cache = SweepCache(tmp_path)
        keys = _fill(cache, 4, size=100)
        per_record = cache.entries()[0][2]
        SweepCache(tmp_path, max_bytes=2 * per_record).prune()
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
        assert cache.get(keys[2]) is not None and cache.get(keys[3]) is not None


class TestPrune:
    def test_prune_without_caps_is_noop(self, tmp_path):
        cache = SweepCache(tmp_path)
        _fill(cache, 4)
        assert cache.prune() == (0, 0)
        assert len(cache.entries()) == 4

    def test_explicit_args_override_instance_caps(self, tmp_path):
        cache = SweepCache(tmp_path)
        _fill(cache, 5)
        evicted, _ = cache.prune(max_entries=2)
        assert evicted == 3
        assert len(cache.entries()) == 2

    def test_prune_to_zero_clears(self, tmp_path):
        cache = SweepCache(tmp_path)
        _fill(cache, 3)
        evicted, _ = cache.prune(max_entries=0)
        assert evicted == 3
        assert cache.entries() == []

    def test_stats_line_reports_evictions(self, tmp_path):
        cache = SweepCache(tmp_path, max_entries=1)
        _fill(cache, 2)
        assert "evicted" in cache.stats_line()
        fresh = SweepCache(tmp_path)
        assert "evicted" not in fresh.stats_line()


class TestCacheCli:
    def test_stats_only(self, tmp_path, capsys):
        cache = SweepCache(tmp_path)
        _fill(cache, 3)
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 record(s)" in out

    def test_prune_with_cap(self, tmp_path, capsys):
        _fill(SweepCache(tmp_path), 5)
        assert main(
            ["cache", "--cache-dir", str(tmp_path), "--prune", "--max-entries", "2"]
        ) == 0
        assert "pruned 3 record(s)" in capsys.readouterr().out
        assert len(SweepCache(tmp_path).entries()) == 2

    def test_prune_without_caps_clears(self, tmp_path, capsys):
        _fill(SweepCache(tmp_path), 4)
        assert main(["cache", "--cache-dir", str(tmp_path), "--prune"]) == 0
        assert "pruned 4 record(s)" in capsys.readouterr().out
        assert SweepCache(tmp_path).entries() == []

    def test_caps_without_prune_do_nothing(self, tmp_path, capsys):
        _fill(SweepCache(tmp_path), 4)
        assert main(
            ["cache", "--cache-dir", str(tmp_path), "--max-entries", "1"]
        ) == 0
        assert "nothing evicted" in capsys.readouterr().out
        assert len(SweepCache(tmp_path).entries()) == 4
