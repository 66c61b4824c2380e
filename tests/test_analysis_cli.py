"""The ``repro analyze`` command: exit codes, JSONL export, golden output."""

import json
import pathlib

from repro.analysis import dump_jsonl, load_jsonl
from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "analyze_cc_strict.jsonl"

#: The exact invocation that produced the golden file.  Everything that
#: feeds the op stream is pinned (seed, sizes, backend), so the strict
#: findings for the annotated Shiloach–Vishkin races are reproducible
#: byte for byte.
GOLDEN_ARGV = [
    "analyze", "--workload", "cc", "--backend", "smp-engine",
    "--p", "2", "--seed", "7", "--n", "64",
    "--param", "graph=random", "--param", "m=256",
    "--strict", "--max-findings", "8",
]


class TestExitCodes:
    def test_clean_workload_exits_zero(self, capsys):
        rc = main(["analyze", "--workload", "rank", "--n", "128", "--p", "2",
                   "--seed", "3", "--opt", "streams_per_proc=8"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_all_programs_exit_zero(self, capsys):
        assert main(["analyze", "--all"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ": clean" in ln]
        assert len(lines) == 6
        assert any("fig2/cc/mta/sv" in ln for ln in lines)

    def test_strict_findings_exit_one(self, capsys):
        assert main(GOLDEN_ARGV) == 1
        out = capsys.readouterr().out
        assert "error(s)" in out and "race" in out

    def test_zero_cap_still_counts_every_error(self, capsys):
        # the cap limits what is printed; the status and exit code see all
        assert main(GOLDEN_ARGV[:-1] + ["0"]) == 1
        out = capsys.readouterr().out
        assert "127 error(s)" in out and "ERROR" not in out

    def test_negative_cap_is_usage_error(self, capsys):
        assert main(GOLDEN_ARGV[:-1] + ["-1"]) == 2
        assert "--max-findings must be >= 0" in capsys.readouterr().err

    def test_workload_plus_all_is_usage_error(self, capsys):
        assert main(["analyze", "--all", "--workload", "cc"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_workload_is_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "--workload or --all" in capsys.readouterr().err

    def test_model_backend_is_usage_error(self, capsys):
        rc = main(["analyze", "--workload", "cc", "--backend", "smp-model",
                   "--n", "64", "--param", "graph=random", "--param", "m=256"])
        assert rc == 2
        assert "not a cycle engine" in capsys.readouterr().err


class TestJsonl:
    def test_stdout_jsonl_is_pure_records(self, capsys):
        assert main(GOLDEN_ARGV + ["--jsonl", "-"]) == 1
        out = capsys.readouterr().out
        records = []
        for line in out.splitlines():
            if line.startswith("{"):
                records.append(json.loads(line))
            else:
                # only the per-program status line is allowed besides records
                assert "error(s)" in line
        assert len(records) == 8
        assert all(r["check"] == "race" for r in records)

    def test_file_output_matches_golden(self, tmp_path, capsys):
        out_path = tmp_path / "findings.jsonl"
        assert main(GOLDEN_ARGV + ["--jsonl", str(out_path)]) == 1
        capsys.readouterr()
        assert out_path.read_text() == GOLDEN.read_text()

    def test_golden_round_trips_through_the_api(self):
        findings = load_jsonl(GOLDEN.read_text())
        assert len(findings) == 8
        assert dump_jsonl(findings) == GOLDEN.read_text()
        for f in findings:
            assert f.severity == "error"
            assert f.witness["other_thread"] != f.thread
