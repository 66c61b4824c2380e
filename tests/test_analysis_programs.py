"""End-to-end analysis of the real paper kernels.

The acceptance bar for the analyzer: every shipped op-tuple program is
happens-before clean (modulo the annotated Shiloach–Vishkin races,
which strict mode surfaces), a checker reaches a backend run only as
``hooks=(CheckerHook(checker),)``, and the retired ``check`` workload
option is refused.
"""

import pytest

from repro.analysis import ConcurrencyChecker, analyze_suite, analyze_workload
from repro.backends import create
from repro.backends.base import Workload
from repro.errors import ConfigurationError
from repro.sim import CheckerHook

SMALL_CC = Workload(
    kind="cc", p=2, seed=7, params={"graph": "random", "n": 64, "m": 256}
)


class TestPaperSuite:
    def test_every_paper_program_is_clean(self):
        results = analyze_suite()
        assert [name for name, _ in results] == [
            "fig1/rank/mta/random",
            "fig1/rank/mta/ordered",
            "fig1/rank/smp/helman-jaja",
            "fig2/cc/mta/sv",
            "fig2/cc/smp/sv",
            "table1/chase",
        ]
        for name, report in results:
            assert report.ok(), f"{name}: {[f.render() for f in report.findings]}"
            assert report.stats["ops"] > 0

    def test_mta_rank_is_clean_without_suppressions(self):
        report = analyze_workload(
            Workload(kind="rank", p=2, seed=3, params={"n": 256, "list": "random"},
                     options={"streams_per_proc": 8}),
            "mta-engine",
        )
        assert report.ok()
        assert report.stats.get("suppressed_races", 0) == 0

    def test_cc_suppressions_are_annotated(self):
        report = analyze_workload(SMALL_CC, "smp-engine")
        assert report.ok()
        assert report.stats["suppressed_races"] > 0
        assert report.stats["suppression_reasons"]

    def test_strict_mode_surfaces_sv_races(self):
        report = analyze_workload(SMALL_CC, "smp-engine", strict=True)
        assert not report.ok()
        assert report.errors and all(f.check == "race" for f in report.errors)

    def test_max_findings_caps_and_counts_dropped(self):
        report = analyze_workload(SMALL_CC, "smp-engine", strict=True, max_findings=3)
        assert len(report.findings) == 3
        assert report.stats["dropped_findings"] > 0


class TestBackendPlumbing:
    def test_model_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_workload(SMALL_CC, "smp-model")

    def test_check_option_is_retired(self):
        backend = create("smp-engine")
        wl = Workload(kind="cc", p=2, seed=7,
                      params={"graph": "random", "n": 64, "m": 256},
                      options={"check": True})
        with pytest.raises(ConfigurationError, match="repro analyze"):
            backend.execute(backend.prepare(wl))

    def test_explicit_checker_takes_precedence(self):
        backend = create("smp-engine")
        check = ConcurrencyChecker(strict=True, program="explicit")
        summary = backend.execute(backend.prepare(SMALL_CC), hooks=(CheckerHook(check),))
        assert "analysis" not in summary.detail
        assert not check.report().ok()

    def test_workload_without_check_option_pays_nothing(self):
        backend = create("smp-engine")
        summary = backend.execute(backend.prepare(SMALL_CC))
        assert "analysis" not in summary.detail
