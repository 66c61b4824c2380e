"""End-to-end tests of :mod:`repro.xval` — the model-vs-engine loop.

Three invariants:

* determinism — one committed golden (``tests/golden/xval_cc.jsonl``)
  byte-matches the CLI's default run, and a report is byte-identical
  across sweep worker counts, execution tiers, and cache round-trips;
* separation — the branch-aware SMP model and the SMP engine both
  charge the branch-avoiding CC variant strictly less branch cost than
  the branchy one, and agree on the sign of the gap;
* structure — kernel/machine pairs with no analytic counterpart fail
  with a configuration error (exit 2 from the CLI), never a traceback.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.backends import Workload
from repro.cli import main
from repro.core.runner import Job, SweepCache, run_jobs
from repro.errors import ConfigurationError
from repro.xval import (
    DivergenceReport,
    PhasePair,
    branch_separation,
    has_counterpart,
    run_xval,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "xval_cc.jsonl"


def _workload(*, seed=1, options=None, **params_over):
    params = {"graph": "random", "n": 192, "m": 384}
    params.update(params_over)
    opts = {"machine": "smp", "variant": "branchy", "max_iter": 64}
    opts.update(options or {})
    return Workload(kind="cc", p=4, seed=seed, params=params, options=opts)


class TestGolden:
    def test_cli_default_run_matches_golden(self, capsys):
        """``repro xval`` with stock defaults reproduces the committed
        golden byte for byte."""
        rc = main(["xval", "--no-cache", "--jsonl", "-"])
        assert rc == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")

    def test_report_roundtrips_through_dict(self):
        report, _ = run_xval(_workload())
        clone = DivergenceReport.from_dict(report.to_dict())
        assert clone.jsonl() == report.jsonl()
        assert clone.max_rel_error == report.max_rel_error


class TestDeterminism:
    def test_identical_across_sweep_worker_counts(self):
        jobs = [Job(_workload(seed=s, n=96, m=192), "cost-xval") for s in (1, 2)]
        serial = run_jobs(jobs, workers=1, cache=False)
        pooled = run_jobs(jobs, workers=2, cache=False)
        for a, b in zip(serial, pooled, strict=True):
            assert a.jsonl() == b.jsonl()
            ra = DivergenceReport.from_dict(a.detail["xval"])
            rb = DivergenceReport.from_dict(b.detail["xval"])
            assert ra.jsonl() == rb.jsonl()

    def test_identical_across_execution_tiers(self):
        texts = {}
        for tier in ("interpreted", "auto"):
            report, _ = run_xval(
                _workload(n=96, m=192, options={"tier": tier})
            )
            texts[tier] = report.jsonl()
        assert texts["interpreted"] == texts["auto"]

    def test_identical_through_the_result_cache(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        job = Job(_workload(n=96, m=192), "cost-xval")
        [fresh] = run_jobs([job], workers=1, cache=cache)
        [warm] = run_jobs([job], workers=1, cache=cache)
        assert not fresh.cached and warm.cached
        assert fresh.jsonl() == warm.jsonl()
        assert (
            DivergenceReport.from_dict(warm.detail["xval"]).jsonl()
            == DivergenceReport.from_dict(fresh.detail["xval"]).jsonl()
        )


class TestSeparation:
    def test_branch_avoiding_strictly_cheaper_on_both_stacks(self):
        sep = branch_separation(n=96, m=192, p=4, seed=1)
        s = sep["separation"]
        assert s["predicted_gap_cycles"] > 0.0
        assert s["simulated_gap_cycles"] > 0.0
        assert s["avoiding_lower_predicted"] and s["avoiding_lower_simulated"]
        assert s["sign_agreement"]
        avoiding = sep["branch-avoiding"]
        assert avoiding["predicted_branch_cycles"] == 0.0
        assert avoiding["simulated_branch_cycles"] == 0.0
        branchy = sep["branchy"]
        assert branchy["predicted_branch_cycles"] > 0.0
        assert branchy["simulated_branch_cycles"] > 0.0


class TestPairing:
    def test_smp_phases_pair_under_engine_names(self):
        report, summary = run_xval(_workload(n=96, m=192))
        assert report.pairs[0].name == "smp.sv-cc"
        engine_names = [name for name, _ in summary.phase_breakdown()]
        assert [p.name for p in report.pairs] == engine_names[: len(report.pairs)]
        assert report.unmatched_predicted == []
        assert report.simulated_total_cycles == summary.total_cycles

    def test_mta_pairing(self):
        report, summary = run_xval(
            Workload(
                kind="cc",
                p=4,
                seed=1,
                params={"graph": "random", "n": 96, "m": 192},
                options={"machine": "mta"},
            )
        )
        assert report.variant is None
        assert all(p.name.startswith("mta.") for p in report.pairs)
        assert report.unmatched_predicted == []
        assert report.unmatched_simulated == []

    def test_worst_ranks_by_relative_error(self):
        report, _ = run_xval(_workload(n=96, m=192))
        worst = report.worst(3)
        assert len(worst) == min(3, len(report.pairs))
        assert all(
            worst[i].rel_error >= worst[i + 1].rel_error
            for i in range(len(worst) - 1)
        )
        assert worst[0].rel_error == report.max_rel_error

    def test_phase_pair_errors(self):
        pair = PhasePair(name="x", predicted_cycles=80.0, simulated_cycles=100.0)
        assert pair.abs_error == 20.0
        assert pair.rel_error == pytest.approx(0.2)
        assert PhasePair.from_dict(pair.to_dict()) == pair


class TestStructuredErrors:
    def test_counterpart_table(self):
        assert has_counterpart("cc", "smp")
        assert has_counterpart("cc", "mta")
        assert not has_counterpart("rank", "smp")

    def test_missing_counterpart_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no analytic counterpart"):
            run_xval(
                Workload(kind="rank", p=2, seed=0, params={"n": 64}, options={})
            )

    def test_cli_reports_missing_counterpart_as_error(self, capsys):
        rc = main(["xval", "--workload", "rank", "--no-cache"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "no analytic counterpart" in captured.err
        assert "Traceback" not in captured.err

    def test_variant_on_mta_is_rejected(self):
        with pytest.raises(ConfigurationError, match="SMP-only"):
            run_xval(
                Workload(
                    kind="cc",
                    p=2,
                    seed=0,
                    params={"graph": "random", "n": 32, "m": 64},
                    options={"machine": "mta", "variant": "branchy"},
                )
            )

    def test_unknown_machine_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no analytic counterpart"):
            run_xval(_workload(options={"machine": "cray-3"}))
