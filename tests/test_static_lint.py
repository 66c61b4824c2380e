"""The static linter (`repro lint`): rules, suppressions, CLI, goldens.

Three layers of coverage:

* seeded violations — every rule family fires on the fixture sources
  under ``tests/fixtures/`` with a stable rule id and witness location,
  and the full finding set round-trips byte-identically through the
  committed golden (``tests/golden/lint_seeded.jsonl``);
* state-contract mutations — deliberate edits to the real
  ``SimThread`` source (drop a ``to_state`` key, add a field without a
  state key, skip a version bump) each produce exactly one finding with
  the right rule id;
* the repo itself — ``lint_repo()`` runs clean, which is the same
  invariant the CI ``static-lint`` job gates on.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import dump_jsonl, load_jsonl
from repro.analysis.static import (
    ModuleContext,
    collect_state_baseline,
    default_rules,
    lint_modules,
    lint_repo,
    repo_root,
)
from repro.analysis.static.discipline import BANNED_CONSTRUCTORS
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "lint_seeded.jsonl"
ANALYZE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "analyze_cc_strict.jsonl"
BASELINE = pathlib.Path(__file__).parent / "golden" / "state_contracts.json"

#: fixture file -> module name it is linted under (nothing is imported).
SEEDED = [
    ("lint_seeded_sim.py", "repro.sim.lint_seeded"),
    ("lint_seeded_gen.py", "repro.graphs.lint_seeded"),
    ("lint_seeded_bench.py", "benchmarks.lint_seeded"),
    ("lint_seeded_hot.py", "repro.sim.kernel"),
    ("lint_seeded_xval.py", "repro.xval.lint_seeded"),
]


def seeded_contexts():
    out = []
    for fname, module in SEEDED:
        path = FIXTURES / fname
        out.append(
            ModuleContext.parse(
                f"tests/fixtures/{fname}", module, path.read_text(encoding="utf-8")
            )
        )
    return out


def seeded_report(**kwargs):
    return lint_modules(seeded_contexts(), default_rules(), **kwargs)


class TestSeededViolations:
    """Each rule family fires on the fixtures with a stable id."""

    def test_every_family_fires(self):
        report = seeded_report()
        by_check = {f.check for f in report.findings}
        assert {
            "nondet-call",
            "nondet-env",
            "nondet-set-iter",
            "nondet-id-order",
            "state-missing-pair",
            "engine-direct-construct",
            "hook-event-unknown",
            "hot-loop-import",
            "gen-barrier-balance",
            "gen-op-arity",
            "gen-runblock-shape",
        } <= by_check

    def test_witness_locations_are_stable(self):
        report = seeded_report()
        src = (FIXTURES / "lint_seeded_sim.py").read_text().splitlines()
        for f in report.findings:
            assert f.file.startswith("tests/fixtures/"), f
            assert f.line is not None and f.line >= 1, f
        # each finding points at the line carrying its seeding comment
        f = next(f for f in report.findings if f.check == "nondet-call")
        assert "time.time()" in src[f.line - 1]
        f = next(f for f in report.findings if f.check == "hook-event-unknown")
        assert f.witness == {"class": "SeededHook", "method": "on_warp"}
        f = next(f for f in report.findings if f.check == "engine-direct-construct")
        assert f.witness["constructor"] == "MTAEngine"
        f = next(f for f in report.findings if f.check == "gen-op-arity")
        assert f.witness == {"tag": "FA", "got": 2, "want": 3}
        f = next(f for f in report.findings if f.check == "hot-loop-import")
        assert f.witness == {"import": "repro.obs"}

    def test_xval_package_is_in_determinism_scope(self):
        """Divergence reports are golden-compared byte for byte, so the
        determinism family must cover repro.xval (the seeded fixture
        proves the rules actually fire there)."""
        from repro.analysis.static import DETERMINISM_PACKAGES

        assert "repro.xval" in DETERMINISM_PACKAGES
        report = seeded_report()
        xval = [
            f for f in report.findings if f.file.endswith("lint_seeded_xval.py")
        ]
        assert [f.check for f in xval] == ["nondet-call"]

    def test_state_mispair_collapses_to_one_finding(self):
        # Snapshotted has both a missing from_state and an uncovered
        # mutated attr; the checker reports only the top symptom
        report = seeded_report()
        state = [f for f in report.findings if f.check.startswith("state-")]
        assert len(state) == 1
        assert state[0].check == "state-missing-pair"

    def test_golden_matches(self):
        """Byte-stable output — the lint analogue of the analyze golden."""
        report = seeded_report()
        assert dump_jsonl(report.findings) == GOLDEN.read_text()

    def test_lint_and_analyze_share_one_jsonl_schema(self):
        """The two analyzers cannot drift apart in output schema."""
        lint_findings = load_jsonl(GOLDEN.read_text())
        analyze_findings = load_jsonl(ANALYZE_GOLDEN.read_text())
        lint_keys = {k for f in lint_findings for k in f.to_dict()}
        analyze_keys = {k for f in analyze_findings for k in f.to_dict()}
        assert lint_keys == analyze_keys
        # and both round-trip byte-identically through the same codec
        assert dump_jsonl(lint_findings) == GOLDEN.read_text()
        assert dump_jsonl(analyze_findings) == ANALYZE_GOLDEN.read_text()


THREAD_PATH = "src/repro/sim/thread.py"


def thread_context(source: str) -> ModuleContext:
    return ModuleContext.parse(THREAD_PATH, "repro.sim.thread", source)


def thread_source() -> str:
    return (pathlib.Path(repo_root()) / THREAD_PATH).read_text(encoding="utf-8")


def state_findings(source: str, baseline=None) -> list:
    if baseline is None:
        baseline = json.loads(BASELINE.read_text())
    report = lint_modules(
        [thread_context(source)], default_rules(state_baseline=baseline)
    )
    return [f for f in report.findings if f.check.startswith("state-")]


class TestStateContractMutations:
    """Deliberate mutations each produce exactly one finding."""

    def test_unmodified_thread_is_clean(self):
        assert state_findings(thread_source()) == []

    def test_dropped_to_state_key(self):
        src = thread_source()
        mutated = src.replace('            "wake_at": self.wake_at,\n', "")
        assert mutated != src
        found = state_findings(mutated)
        assert len(found) == 1
        assert found[0].check == "state-attr-missing"
        assert found[0].witness["attr"] == "wake_at"
        assert found[0].witness["class"] == "repro.sim.thread.SimThread"

    def test_field_without_state_key(self):
        src = thread_source()
        mutated = src.replace(
            "    fbpos: int = 0\n",
            "    fbpos: int = 0\n    scratch: int = 0\n",
        )
        assert mutated != src
        found = state_findings(mutated)
        assert len(found) == 1
        assert found[0].check == "state-attr-missing"
        assert found[0].witness["attr"] == "scratch"

    def test_skipped_version_bump(self):
        # simulate "a key was added since the committed baseline, but
        # STATE_VERSION was not bumped": shrink the baseline's key set
        baseline = json.loads(BASELINE.read_text())
        entry = baseline["repro.sim.thread.SimThread"]
        assert "wake_at" in entry["keys"]
        entry["keys"] = [k for k in entry["keys"] if k != "wake_at"]
        found = state_findings(thread_source(), baseline=baseline)
        assert len(found) == 1
        assert found[0].check == "state-version-stale"
        assert found[0].witness["added"] == ["wake_at"]

    def test_bumped_version_accepts_new_keys(self):
        baseline = json.loads(BASELINE.read_text())
        entry = baseline["repro.sim.thread.SimThread"]
        entry["keys"] = [k for k in entry["keys"] if k != "wake_at"]
        entry["version"] = 0  # source says 1 -> the bump happened
        assert state_findings(thread_source(), baseline=baseline) == []

    def test_unknown_from_state_key(self):
        src = thread_source()
        mutated = src.replace(
            '        self.wake_at = state["wake_at"]',
            '        self.wake_at = state["wake_when"]',
        )
        assert mutated != src
        found = state_findings(mutated)
        assert len(found) == 1
        assert found[0].check == "state-key-unknown"
        assert found[0].witness["keys"] == ["wake_when"]


class TestSuppressions:
    def test_marker_suppresses_and_strict_surfaces_as_warning(self):
        src = "import time\n\n\ndef f():\n    return time.time()  # allow_nondet: log line only\n"
        ctx = ModuleContext.parse("src/repro/sim/x.py", "repro.sim.x", src)
        report = lint_modules([ctx], default_rules())
        assert report.findings == []
        assert report.stats["suppressed_findings"] == 1
        assert report.stats["suppression_reasons"] == ["log line only"]
        strict = lint_modules([ctx], default_rules(), strict=True)
        assert len(strict.findings) == 1
        assert strict.findings[0].severity == "warning"
        assert strict.findings[0].witness["suppressed"] == "log line only"
        assert strict.ok()

    def test_reasonless_marker_does_not_suppress(self):
        src = "import time\n\n\ndef f():\n    return time.time()  # allow_nondet\n"
        ctx = ModuleContext.parse("src/repro/sim/x.py", "repro.sim.x", src)
        report = lint_modules([ctx], default_rules())
        assert len(report.findings) == 1
        assert report.findings[0].severity == "error"

    def test_wrong_family_marker_does_not_suppress(self):
        src = "import time\n\n\ndef f():\n    return time.time()  # allow_shape: wrong family\n"
        ctx = ModuleContext.parse("src/repro/sim/x.py", "repro.sim.x", src)
        report = lint_modules([ctx], default_rules())
        assert len(report.findings) == 1


class TestRepoIsClean:
    """The acceptance invariant the CI static-lint job gates on."""

    def test_lint_repo_clean(self):
        report = lint_repo()
        assert report.findings == [], "\n" + report.render()
        # every suppression in the tree carries a reason
        assert all(report.stats["suppression_reasons"])

    def test_state_baseline_is_current(self):
        assert collect_state_baseline() == BASELINE.read_text()


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    @pytest.mark.parametrize("ctor", BANNED_CONSTRUCTORS)
    def test_lint_seeded_file_fails(self, tmp_path, capsys, ctor):
        # a violation in a real lintable location -> exit 1
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_direct.py").write_text(
            f"from repro.sim import {ctor}\n\n\ndef test_x():\n"
            f"    return {ctor}(p=2)\n"
        )
        from repro.analysis.static import lint_repo as lr

        report = lr(root=str(tmp_path))
        assert [f.check for f in report.findings] == ["engine-direct-construct"]

    def test_cli_module_is_held_to_the_rule(self):
        # the CLI runs kernels only through repro.backends
        ctx = ModuleContext.parse(
            "src/repro/cli.py",
            "repro.cli",
            "from repro.core import MTAMachine\n\n\ndef f():\n"
            "    return MTAMachine(p=1)\n",
        )
        report = lint_modules([ctx], default_rules())
        assert [f.check for f in report.findings] == ["engine-direct-construct"]
        assert report.findings[0].message.startswith("CLI constructs MTAMachine")

    def test_lint_jsonl_stdout(self, capsys):
        assert main(["lint", "--jsonl", "-", "--strict"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("{")]
        # the 14 annotated sites surface as warnings under --strict
        findings = load_jsonl("\n".join(lines))
        assert findings, "expected annotated findings under --strict"
        assert all(f.severity == "warning" for f in findings)

    def test_lint_rule_filter(self, capsys):
        assert main(["lint", "--rule", "determinism"]) == 0
        assert main(["lint", "--rule", "nondet-env"]) == 0

    def test_unknown_rule_is_a_usage_error(self, capsys):
        # a typo'd --rule must not silently pass the gate
        assert main(["lint", "--rule", "bogus-rule"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err and "bogus-rule" in err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["lint", "/nonexistent/nowhere.py"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_write_state_baseline_round_trips(self, tmp_path, capsys):
        out = tmp_path / "contracts.json"
        assert main(["lint", "--write-state-baseline", "--state-baseline", str(out)]) == 0
        assert out.read_text() == BASELINE.read_text()


@pytest.mark.parametrize("fname,module", SEEDED)
def test_fixtures_parse(fname, module):
    ctx = ModuleContext.parse(fname, module, (FIXTURES / fname).read_text())
    assert ctx.module == module
