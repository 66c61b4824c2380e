"""Tests for the cycle-engine thread programs (lists + graphs)."""

import numpy as np
import pytest

from repro.errors import RunPaused
from repro.graphs.generate import random_graph, star_graph
from repro.graphs.programs import simulate_mta_cc, simulate_smp_cc
from repro.graphs.sequential_cc import cc_union_find
from repro.lists.generate import ordered_list, random_list, true_ranks
from repro.lists.programs import simulate_mta_list_ranking, simulate_smp_list_ranking
from tests.test_sim_fuzz import _report_blob


class TestMTAListRankingSim:
    @pytest.mark.parametrize("n", [1, 10, 97, 1000])
    def test_computes_correct_ranks(self, n):
        nxt = random_list(n, 5)
        sim = simulate_mta_list_ranking(nxt, p=1, streams_per_proc=32)
        assert np.array_equal(sim.ranks, true_ranks(nxt))

    def test_multi_processor_correct(self):
        nxt = random_list(2000, 2)
        sim = simulate_mta_list_ranking(nxt, p=4)
        assert np.array_equal(sim.ranks, true_ranks(nxt))

    def test_block_schedule_correct(self):
        nxt = random_list(1500, 3)
        sim = simulate_mta_list_ranking(nxt, p=2, dynamic=False)
        assert np.array_equal(sim.ranks, true_ranks(nxt))

    def test_ordered_and_random_do_identical_work(self):
        """Flat hashed memory: layout must not change the instruction
        stream on the MTA.  (At miniature scale the *cycle* counts can
        still differ through walk-length tails — the longest random
        sublist drains the phase — which vanishes at the paper's sizes;
        the Table 1 benchmark reports that trend.)"""
        n = 3000
        a = simulate_mta_list_ranking(ordered_list(n), p=1)
        b = simulate_mta_list_ranking(random_list(n, 1), p=1)
        assert abs(a.report.total_issued - b.report.total_issued) < 0.1 * b.report.total_issued

    def test_utilization_in_unit_range(self):
        sim = simulate_mta_list_ranking(random_list(2000, 1), p=2)
        assert 0.0 < sim.report.utilization <= 1.0

    def test_more_streams_do_not_hurt_utilization(self):
        nxt = random_list(4000, 4)
        low = simulate_mta_list_ranking(nxt, p=1, streams_per_proc=8)
        high = simulate_mta_list_ranking(nxt, p=1, streams_per_proc=100)
        assert high.report.cycles <= low.report.cycles

    def test_phase_reports_cover_algorithm(self):
        sim = simulate_mta_list_ranking(random_list(500, 1), p=1)
        names = [r.name for r in sim.phase_reports]
        assert names == ["mta.setup", "mta.walk", "mta.rank-walks", "mta.rerank"]
        assert sim.report.cycles == sum(r.cycles for r in sim.phase_reports)


class TestSMPListRankingSim:
    @pytest.mark.parametrize("n", [1, 50, 800])
    def test_computes_correct_ranks(self, n):
        nxt = random_list(n, 8)
        sim = simulate_smp_list_ranking(nxt, p=2, rng=1)
        assert np.array_equal(sim.ranks, true_ranks(nxt))

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_processor_counts(self, p):
        nxt = random_list(1200, 9)
        sim = simulate_smp_list_ranking(nxt, p=p, rng=0)
        assert np.array_equal(sim.ranks, true_ranks(nxt))

    def test_ordered_faster_than_random(self):
        """Cache machine: layout must matter."""
        n = 4000
        a = simulate_smp_list_ranking(ordered_list(n), p=2, rng=0)
        b = simulate_smp_list_ranking(random_list(n, 1), p=2, rng=0)
        assert b.report.cycles > 1.3 * a.report.cycles

    def test_cache_stats_present(self):
        sim = simulate_smp_list_ranking(random_list(600, 1), p=2, rng=0)
        assert len(sim.report.detail["l1_hit_rate"]) == 2

    def test_default_call_is_deterministic(self):
        """The sublist heads come from a fixed seed by default, so a
        direct call simulates the same run every time: the ``rng=0`` run."""
        nxt = random_list(256, rng=5)
        first, second = (simulate_smp_list_ranking(nxt, p=4) for _ in range(2))
        seeded = simulate_smp_list_ranking(nxt, p=4, rng=0)
        assert _report_blob(first.report) == _report_blob(second.report)
        assert _report_blob(first.report) == _report_blob(seeded.report)
        assert np.array_equal(first.ranks, seeded.ranks)

    def test_default_call_resumes_from_a_checkpoint(self):
        """A recorded default call paused part-way resumes, in a second
        default call, to the uninterrupted run."""
        from tests.test_event_loop import _outcome, _Session

        nxt = random_list(256, rng=5)
        whole = simulate_smp_list_ranking(nxt, p=4)
        paused = []

        def sink(state):
            paused.append(state)
            return True

        with pytest.raises(RunPaused):
            simulate_smp_list_ranking(nxt, p=4, session=_Session(every=500, sink=sink))
        resumed = simulate_smp_list_ranking(nxt, p=4, session=_Session(resume=paused[0]))
        assert _outcome(resumed) == _outcome(whole)


class TestMTACCSim:
    @pytest.mark.parametrize("seed", range(3))
    def test_labels_correct(self, seed):
        g = random_graph(300, 1200, rng=seed)
        sim = simulate_mta_cc(g, p=2)
        assert np.array_equal(sim.labels, cc_union_find(g).labels)

    def test_star_graph(self):
        g = star_graph(200)
        sim = simulate_mta_cc(g, p=1, streams_per_proc=32)
        assert np.array_equal(sim.labels, cc_union_find(g).labels)

    def test_phases_alternate_graft_shortcut(self):
        g = random_graph(200, 800, rng=1)
        sim = simulate_mta_cc(g, p=1)
        names = [r.name for r in sim.phase_reports]
        assert names[0] == "mta.graft.1"
        assert all(n.startswith(("mta.graft", "mta.shortcut")) for n in names)

    def test_utilization_positive(self):
        g = random_graph(400, 2000, rng=2)
        sim = simulate_mta_cc(g, p=2)
        assert 0.1 < sim.report.utilization <= 1.0


class TestSMPCCSim:
    @pytest.mark.parametrize("seed", range(3))
    def test_labels_correct(self, seed):
        g = random_graph(250, 900, rng=seed)
        sim = simulate_smp_cc(g, p=2)
        assert np.array_equal(sim.labels, cc_union_find(g).labels)

    @pytest.mark.parametrize("p", [1, 4])
    def test_processor_counts(self, p):
        g = random_graph(200, 700, rng=5)
        sim = simulate_smp_cc(g, p=p)
        assert np.array_equal(sim.labels, cc_union_find(g).labels)

    def test_iterations_recorded(self):
        g = random_graph(150, 500, rng=0)
        sim = simulate_smp_cc(g, p=2)
        assert sim.iterations >= 1


class TestCrossEngineShape:
    def test_mta_cc_faster_in_seconds_than_smp_cc(self):
        """The Fig. 2 headline at miniature scale."""
        g = random_graph(500, 3000, rng=7)
        mta = simulate_mta_cc(g, p=4)
        smp = simulate_smp_cc(g, p=4)
        assert mta.report.seconds < smp.report.seconds
