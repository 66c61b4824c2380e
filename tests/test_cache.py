"""Tests for the cache simulators (repro.arch.cache)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    CacheStats,
    hierarchy_stats,
    simulate_direct_mapped,
)
from repro.errors import ConfigurationError

L1 = CacheConfig(size_words=64, line_words=4)  # 16 lines, direct-mapped
L2 = CacheConfig(size_words=256, line_words=8)


class TestCacheConfig:
    def test_geometry(self):
        assert L1.n_lines == 16
        assert L1.n_sets == 16
        assert L1.line_shift == 2

    def test_associativity_splits_sets(self):
        c = CacheConfig(size_words=64, line_words=4, associativity=4)
        assert c.n_sets == 4

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=100, line_words=4)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=64, line_words=3)

    def test_line_larger_than_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=4, line_words=8)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=64, line_words=4, associativity=0)
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=64, line_words=4, associativity=5)


class TestReferenceCache:
    def test_cold_miss_then_hit(self):
        c = Cache(L1)
        assert c.access(0) is False
        assert c.access(1) is True  # same 4-word line
        assert c.access(3) is True
        assert c.access(4) is False  # next line

    def test_conflict_eviction_direct_mapped(self):
        c = Cache(L1)
        c.access(0)
        assert c.access(64) is False  # same set (64 words apart), evicts line 0
        assert c.access(0) is False  # line 0 was evicted

    def test_associativity_avoids_conflict(self):
        c = Cache(CacheConfig(size_words=64, line_words=4, associativity=2))
        c.access(0)
        c.access(32)  # maps to same set in an 8-set, 2-way cache
        assert c.access(0) is True

    def test_lru_evicts_least_recent(self):
        c = Cache(CacheConfig(size_words=64, line_words=4, associativity=2))
        # three lines mapping to one set: 0, 32, 64 (8 sets of 4-word lines)
        c.access(0)
        c.access(32)
        c.access(0)  # 0 now most recent
        c.access(64)  # evicts 32
        assert c.access(0) is True
        assert c.access(32) is False

    def test_flush_keeps_stats(self):
        c = Cache(L1)
        c.access(0)
        c.access(0)
        c.flush()
        assert c.access(0) is False
        assert c.stats.accesses == 3
        assert c.stats.hits == 1

    def test_stats_hit_rate(self):
        s = CacheStats(accesses=10, hits=7)
        assert s.misses == 3
        assert s.hit_rate == pytest.approx(0.7)
        assert CacheStats().hit_rate == 1.0


class TestVectorizedDirectMapped:
    def test_matches_reference_on_stream(self, rng):
        addrs = rng.integers(0, 4096, size=3000).astype(np.int64)
        fast = simulate_direct_mapped(L1, addrs)
        slow = Cache(L1).access_stream(addrs)
        assert np.array_equal(fast, slow)

    def test_sequential_stream_hits_within_lines(self):
        addrs = np.arange(64, dtype=np.int64)
        hits = simulate_direct_mapped(L1, addrs)
        # one miss per 4-word line
        assert int((~hits).sum()) == 16

    def test_empty_stream(self):
        assert simulate_direct_mapped(L1, np.empty(0, dtype=np.int64)).size == 0

    def test_rejects_associative_config(self):
        cfg = CacheConfig(size_words=64, line_words=4, associativity=2)
        with pytest.raises(ConfigurationError):
            simulate_direct_mapped(cfg, np.array([0]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=400),
        st.sampled_from([(32, 2), (64, 4), (128, 8)]),
    )
    def test_property_equivalence_with_reference(self, addrs, geom):
        size, line = geom
        cfg = CacheConfig(size_words=size, line_words=line)
        a = np.array(addrs, dtype=np.int64)
        assert np.array_equal(
            simulate_direct_mapped(cfg, a), Cache(cfg).access_stream(a)
        )


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self, rng):
        addrs = rng.integers(0, 8192, size=2000).astype(np.int64)
        h = CacheHierarchy(L1, L2)
        s1, s2 = h.simulate_stream(addrs)
        assert s1.accesses == 2000
        assert s2.accesses == s1.misses

    def test_repeated_scan_hits_l2_when_it_fits(self):
        # 128 words fit in the 256-word L2 but thrash the 64-word L1
        addrs = np.tile(np.arange(128, dtype=np.int64), 4)
        s1, s2 = hierarchy_stats(L1, L2, addrs)
        assert s2.hits > 0
        assert s2.misses == 128 // L2.line_words  # only the cold fills miss L2

    def test_incremental_access_levels(self):
        h = CacheHierarchy(L1, L2)
        assert h.access(0) == "mem"
        assert h.access(1) == "l1"
        # same L1 set as line 0 but another L2 set: evicts line 0 from L1 only
        assert h.access(L1.size_words) == "mem"
        assert h.access(0) == "l2"

    def test_accumulates_across_streams(self, rng):
        h = CacheHierarchy(L1, L2)
        h.simulate_stream(rng.integers(0, 512, 100).astype(np.int64))
        h.simulate_stream(rng.integers(0, 512, 100).astype(np.int64))
        assert h.l1_stats.accesses == 200


E4500_L1 = CacheConfig(size_words=4096, line_words=8)
E4500_L2 = CacheConfig(size_words=1 << 20, line_words=16)
TWO_WAY_L1 = CacheConfig(size_words=4096, line_words=8, associativity=2)

#: Addresses that hit, conflict in L1 only, and conflict in L2 too: a few
#: lines, offset by multiples of each level's capacity.
_CONFLICTING_ADDRS = st.builds(
    lambda i, j, off: i * E4500_L1.size_words + j * E4500_L2.size_words + off,
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 2 * E4500_L2.line_words - 1),
)


class TestOneStatePerLevel:
    """``access()`` and ``simulate_stream()`` advance the same lines."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(_CONFLICTING_ADDRS, max_size=40), min_size=2, max_size=8),
        st.sampled_from([E4500_L1, TWO_WAY_L1]),
    )
    def test_interleaved_styles_match_reference(self, chunks, l1):
        h = CacheHierarchy(l1, E4500_L2)
        ref1, ref2 = Cache(l1), Cache(E4500_L2)
        for k, chunk in enumerate(chunks):
            expected = [
                "l1" if ref1.access(a) else "l2" if ref2.access(a) else "mem"
                for a in chunk
            ]
            if k % 2 == 0:
                assert [h.access(a) for a in chunk] == expected
            else:
                s1, s2 = h.simulate_stream(np.array(chunk, dtype=np.int64))
                l1_hits, l2_hits = expected.count("l1"), expected.count("l2")
                assert s1 == CacheStats(len(chunk), l1_hits)
                assert s2 == CacheStats(len(chunk) - l1_hits, l2_hits)
            assert h.l1_stats == ref1.stats and h.l2_stats == ref2.stats

    @pytest.mark.parametrize("l1", [E4500_L1, TWO_WAY_L1])
    def test_state_round_trip_continues_identically(self, l1, rng):
        addrs = rng.integers(0, 3 * E4500_L2.size_words, 3000).astype(np.int64)
        h = CacheHierarchy(l1, E4500_L2)
        h.simulate_stream(addrs[:1000])
        for a in addrs[1000:1500]:
            h.access(int(a))
        restored = CacheHierarchy.from_state(pickle.loads(pickle.dumps(h.to_state())))
        assert restored.to_state() == h.to_state()
        for a in addrs[1500:2000]:
            assert restored.access(int(a)) == h.access(int(a))
        tail = addrs[2000:]
        assert restored.simulate_stream(tail) == h.simulate_stream(tail)
        assert restored.l1_stats == h.l1_stats and restored.l2_stats == h.l2_stats

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(_CONFLICTING_ADDRS, max_size=40), min_size=1, max_size=8),
        st.sampled_from([E4500_L1, TWO_WAY_L1]),
        st.data(),
    )
    def test_lookup_matches_reference_across_streams_and_restore(self, chunks, l1, data):
        """``access`` — both levels in one frame when both are
        direct-mapped — serves each word from the reference levels' level
        and keeps their statistics, around ``simulate_stream`` calls and
        a ``to_state``/``from_state`` round trip, mid-chunk when the
        chunk is accessed word by word."""

        def round_trip(h):
            return CacheHierarchy.from_state(pickle.loads(pickle.dumps(h.to_state())))

        h = CacheHierarchy(l1, E4500_L2)
        ref1, ref2 = Cache(l1), Cache(E4500_L2)
        restore_in = data.draw(st.integers(0, len(chunks) - 1), label="restore in chunk")
        for k, chunk in enumerate(chunks):
            expected = [
                "l1" if ref1.access(a) else "l2" if ref2.access(a) else "mem"
                for a in chunk
            ]
            if data.draw(st.booleans(), label=f"chunk {k} as one stream"):
                if k == restore_in:
                    h = round_trip(h)
                s1, s2 = h.simulate_stream(np.array(chunk, dtype=np.int64))
                l1_hits, l2_hits = expected.count("l1"), expected.count("l2")
                assert (s1, s2) == (
                    CacheStats(len(chunk), l1_hits),
                    CacheStats(len(chunk) - l1_hits, l2_hits),
                )
            else:
                cut = data.draw(st.integers(0, len(chunk)), label=f"chunk {k} cut")
                levels = [h.access(a) for a in chunk[:cut]]
                if k == restore_in:
                    h = round_trip(h)
                levels += [h.access(a) for a in chunk[cut:]]
                assert levels == expected
            assert h.l1_stats == ref1.stats and h.l2_stats == ref2.stats
