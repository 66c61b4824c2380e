"""Tests for the shared sublist traversal engine (repro.lists._traversal)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.lists._traversal import traverse_sublists
from repro.lists.generate import TAIL, head_of, ordered_list, random_list, true_ranks
from repro.lists.prefix import ADD, MAX


def ones(n):
    return np.ones(n, dtype=np.int64)


class TestTraversalPartition:
    def test_every_node_owned_exactly_once(self, rng):
        nxt = random_list(300, rng)
        heads = np.unique(
            np.concatenate([[head_of(nxt)], rng.choice(300, 12, replace=False)])
        )
        trav = traverse_sublists(nxt, heads, ones(300), ADD)
        assert (trav.sublist_id >= 0).all()
        assert trav.lengths.sum() == 300

    def test_positions_are_dense_per_walk(self, rng):
        nxt = random_list(120, rng)
        heads = np.unique(np.concatenate([[head_of(nxt)], rng.choice(120, 5, replace=False)]))
        trav = traverse_sublists(nxt, heads, ones(120), ADD)
        for w in range(trav.n_walks):
            pos = np.sort(trav.pos[trav.sublist_id == w])
            assert pos.tolist() == list(range(trav.lengths[w]))

    def test_single_walk_covers_whole_list(self):
        nxt = ordered_list(50)
        trav = traverse_sublists(nxt, np.array([0]), ones(50), ADD)
        assert trav.n_walks == 1
        assert trav.lengths[0] == 50
        assert trav.stop_node[0] == TAIL
        assert trav.rounds == 50


class TestTraversalPrefix:
    def test_local_prefix_is_position_plus_one_for_ones(self, rng):
        nxt = random_list(200, rng)
        heads = np.unique(np.concatenate([[head_of(nxt)], rng.choice(200, 7, replace=False)]))
        trav = traverse_sublists(nxt, heads, ones(200), ADD)
        assert np.array_equal(trav.local, trav.pos + 1)

    def test_totals_match_lengths_for_ones(self, rng):
        nxt = random_list(150, rng)
        heads = np.unique(np.concatenate([[head_of(nxt)], rng.choice(150, 9, replace=False)]))
        trav = traverse_sublists(nxt, heads, ones(150), ADD)
        assert np.array_equal(trav.totals, trav.lengths)

    def test_max_operator(self, rng):
        nxt = ordered_list(10)
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
        trav = traverse_sublists(nxt, np.array([0, 5]), values, MAX)
        # walk 0 covers ranks 0..4 (max prefix 3,3,4,4,5), walk 1 ranks 5..9
        assert trav.local[:5].tolist() == [3, 3, 4, 4, 5]
        assert trav.local[5:].tolist() == [9, 9, 9, 9, 9]


class TestTraversalChain:
    def test_chain_order_follows_ranks(self, rng):
        nxt = random_list(100, rng)
        heads = np.unique(np.concatenate([[head_of(nxt)], rng.choice(100, 6, replace=False)]))
        trav = traverse_sublists(nxt, heads, ones(100), ADD)
        order = trav.chain_order()
        ranks = true_ranks(nxt)
        head_ranks = [ranks[heads[w]] for w in order]
        assert head_ranks == sorted(head_ranks)

    def test_next_walk_terminates_once(self, rng):
        nxt = random_list(80, rng)
        heads = np.unique(np.concatenate([[head_of(nxt)], rng.choice(80, 4, replace=False)]))
        trav = traverse_sublists(nxt, heads, ones(80), ADD)
        nw = trav.next_walk()
        assert int((nw < 0).sum()) == 1  # exactly one final sublist


class TestTraversalContiguity:
    def test_ordered_list_fully_sequential(self):
        nxt = ordered_list(100)
        trav = traverse_sublists(nxt, np.array([0, 25, 50, 75]), ones(100), ADD)
        # every non-head visit moved to position+1
        assert trav.seq_steps.sum() == 100 - 4

    def test_random_list_mostly_non_sequential(self, rng):
        nxt = random_list(1000, rng)
        heads = np.unique(np.concatenate([[head_of(nxt)], rng.choice(1000, 7, replace=False)]))
        trav = traverse_sublists(nxt, heads, ones(1000), ADD)
        assert trav.seq_steps.sum() < 50


class TestTraversalErrors:
    def test_missing_head_rejected(self):
        nxt = ordered_list(10)
        with pytest.raises(WorkloadError):
            traverse_sublists(nxt, np.array([5]), ones(10), ADD)

    def test_duplicate_heads_rejected(self):
        nxt = ordered_list(10)
        with pytest.raises(WorkloadError):
            traverse_sublists(nxt, np.array([0, 0]), ones(10), ADD)

    def test_empty_heads_rejected(self):
        nxt = ordered_list(10)
        with pytest.raises(WorkloadError):
            traverse_sublists(nxt, np.array([], dtype=np.int64), ones(10), ADD)


def _heads(nxt, k, rng):
    """The list head plus up to ``k`` other distinct nodes."""
    n = len(nxt)
    return np.unique(np.concatenate([[head_of(nxt)], rng.choice(n, min(k, n), replace=False)]))


@pytest.fixture
def paths(monkeypatch):
    """Counts of the traversal calls each path served."""
    from repro.lists import _traversal

    counts = {"chase": 0, "lockstep": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in counts:
        attr = f"_traverse_{name}"
        monkeypatch.setattr(_traversal, attr, counting(name, getattr(_traversal, attr)))
    return counts


class TestStrategyEquivalence:
    """The lock-step and per-walk-chase paths must be indistinguishable."""

    @pytest.mark.parametrize("op_name", ["ADD", "MAX", "ADD-float"])
    def test_chase_matches_lockstep(self, rng, op_name):
        from repro.lists import prefix as prefix_ops
        from repro.lists._traversal import (
            LOCKSTEP_MIN_WALKS,
            _traverse_chase,
            _traverse_lockstep,
        )

        op = getattr(prefix_ops, op_name.split("-")[0])
        # few walks (the chase's side), and walk counts around the boundary
        walks = [int(rng.integers(1, 8)) for _ in range(12)]
        walks += [LOCKSTEP_MIN_WALKS - 2, LOCKSTEP_MIN_WALKS - 1, LOCKSTEP_MIN_WALKS + 40]
        for k in walks:
            n = int(rng.integers(max(5, 2 * k), 800 + 4 * k))
            nxt = random_list(n, rng)
            heads = _heads(nxt, k, rng)
            if op_name == "ADD-float":
                values = rng.standard_normal(n)
            else:
                values = rng.integers(-100, 100, n)
            a = _traverse_chase(nxt, heads, values, op)
            b = _traverse_lockstep(nxt, heads, values, op)
            for attr in (
                "local", "sublist_id", "pos", "lengths",
                "stop_node", "totals", "seq_steps", "rounds",
            ):
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
            assert a.local.dtype == b.local.dtype

    def test_long_sublists_dispatch_to_chase(self, paths):
        """Few heads on a big list must not take the round-synchronous path
        (it would need one NumPy dispatch per node)."""
        n = 50_000
        nxt = ordered_list(n)
        trav = traverse_sublists(nxt, np.array([0, n // 2]), ones(n), ADD)
        assert trav.lengths.sum() == n
        assert trav.rounds == n // 2  # max sublist length, either path
        assert paths == {"chase": 1, "lockstep": 0}

    def test_walk_count_picks_the_path(self, paths):
        from repro.lists._traversal import LOCKSTEP_MIN_WALKS

        nxt = ordered_list(4096)  # head 0
        for k in (LOCKSTEP_MIN_WALKS - 1, LOCKSTEP_MIN_WALKS):
            traverse_sublists(nxt, np.arange(k) * 16, ones(4096), ADD)
        assert paths == {"chase": 1, "lockstep": 1}

    @pytest.mark.parametrize("p", [1, 4, 8])
    @pytest.mark.parametrize("n", [4096, 16384])
    def test_helman_jaja_sublists_are_chased(self, rng, paths, n, p):
        """Helman–JáJá walks s = 8p long sublists: one chase per call."""
        from repro.lists.helman_jaja import rank_helman_jaja

        nxt = random_list(n, rng)
        run = rank_helman_jaja(nxt, p, rng=rng)
        assert np.array_equal(run.ranks, true_ranks(nxt))
        assert paths == {"chase": 1, "lockstep": 0}

    @pytest.mark.parametrize("p", [1, 4, 8])
    def test_mta_walks_advance_in_lockstep(self, rng, paths, p):
        """The MTA model walks min(n/10, 400p) ~10-node sublists."""
        from repro.lists.mta_ranking import rank_mta

        n = 16384
        nxt = random_list(n, rng)
        run = rank_mta(nxt, p)
        # the list head joins the chosen heads unless it is one of them
        assert run.stats["nwalks"] - min(n // 10, 400 * p) in (0, 1)
        assert np.array_equal(run.ranks, true_ranks(nxt))
        assert paths == {"chase": 0, "lockstep": 1}


class TestPrefixOpAccumulate:
    def test_ufunc_accumulate(self):
        import numpy as np
        from repro.lists.prefix import ADD, MAX

        v = np.array([3, -1, 4, 1, -5])
        assert ADD.accumulate(v).tolist() == [3, 2, 6, 7, 2]
        assert MAX.accumulate(v).tolist() == [3, 3, 4, 4, 4]

    def test_fallback_loop_matches_ufunc(self):
        import numpy as np
        from repro.lists.prefix import PrefixOp

        slow = PrefixOp("add-slow", lambda a, b: a + b, 0)
        v = np.arange(10)
        assert slow.accumulate(v).tolist() == np.add.accumulate(v).tolist()
