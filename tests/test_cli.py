"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["rank", "--n", "100", "--p", "2"],
            ["cc", "--n", "64", "--edge-factor", "3"],
            ["fig1", "--max-n", "4096"],
            ["fig2", "--n", "1024"],
            ["table1", "--nodes-per-proc", "500"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Sun-E4500" in out and "Cray-MTA2" in out

    def test_rank_both_machines(self, capsys):
        assert main(["rank", "--n", "4096", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "SMP Helman-JaJa" in out
        assert "MTA Alg.1 walks" in out

    def test_rank_single_machine(self, capsys):
        assert main(["rank", "--n", "2048", "--machine", "mta"]) == 0
        out = capsys.readouterr().out
        assert "MTA" in out and "Helman-JaJa" not in out

    def test_rank_ordered(self, capsys):
        assert main(["rank", "--n", "2048", "--list", "ordered"]) == 0
        assert "ordered list" in capsys.readouterr().out

    @pytest.mark.parametrize("graph", ["random", "rmat", "mesh"])
    def test_cc_graph_families(self, graph, capsys):
        assert main(["cc", "--n", "1024", "--edge-factor", "4", "--graph", graph]) == 0
        out = capsys.readouterr().out
        assert "component" in out
        assert "Shiloach-Vishkin" in out

    def test_fig1_plots(self, capsys):
        assert main(["fig1", "--max-n", "8192"]) == 0
        out = capsys.readouterr().out
        assert "log-log" in out
        assert "smp-rand" in out

    def test_fig2_table(self, capsys):
        assert main(["fig2", "--n", "4096"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_table1(self, capsys):
        assert main(["table1", "--nodes-per-proc", "500"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out

    def test_workload_error_exit_code(self, capsys):
        # p = 0 is a configuration error surfaced as exit code 2
        assert main(["rank", "--n", "16", "--p", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_trace_parses(self):
        args = build_parser().parse_args(
            ["trace", "rank-mta", "--n", "256", "--p", "2", "--level", "op"]
        )
        assert args.command == "trace" and args.workload == "rank-mta"

    def test_trace_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "sort"])

    @pytest.mark.parametrize("workload", ["rank-mta", "rank-smp", "cc-mta", "cc-smp"])
    def test_trace_chrome_output(self, workload, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert (
            main(
                [
                    "trace", workload,
                    "--n", "256", "--p", "2",
                    "--streams", "8",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "utilization" in text and "Perfetto" in text

        import json

        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # Perfetto-loadable: every event carries the required keys
        for e in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert "dur" in e
        # per-phase cycle totals sum to the engine's total cycles
        spans = [e for e in events if e.get("cat") == "phase"]
        total_dur = sum(e["dur"] for e in spans)
        end = max(e["ts"] + e["dur"] for e in spans)
        assert total_dur == pytest.approx(end)

    def test_trace_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "trace", "rank-smp",
                    "--n", "256", "--p", "2",
                    "--format", "jsonl", "--level", "op",
                    "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.obs import read_jsonl

        events = read_jsonl(out)
        assert any(e.ph == "X" for e in events)

    def test_trace_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "rank-smp", "--n", "128", "--p", "2"]) == 0
        capsys.readouterr()
        assert (tmp_path / "trace-rank-smp.json").exists()


class TestBackendsCommand:
    def test_lists_all_five(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in (
            "smp-model", "mta-model", "cluster-model", "smp-engine", "mta-engine"
        ):
            assert name in out

    def test_json_output(self, capsys):
        import json

        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} >= {
            "smp-model", "mta-model", "cluster-model", "smp-engine", "mta-engine"
        }
        assert all({"name", "level", "kinds", "description"} <= set(r) for r in rows)


class TestRunCommand:
    def test_run_rank_on_model(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "smp-model",
             "--n", "512", "--p", "2", "--param", "list=ordered", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "rank on smp-model (fresh)" in out
        assert "utilization" in out

    def test_run_on_engine_with_opts(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "mta-engine",
             "--n", "128", "--p", "2",
             "--opt", "streams_per_proc=8", "--opt", "nodes_per_walk=4",
             "--no-cache"]
        ) == 0
        assert "mta-engine" in capsys.readouterr().out

    def test_run_json_record(self, capsys):
        import json

        assert main(
            ["run", "--workload", "cc", "--backend", "mta-model",
             "--n", "128", "--param", "m=512", "--param", "graph=random",
             "--json", "--no-cache"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "mta-model"
        assert record["summary"]["detail"]["algorithm"] == "sv-mta"

    def test_run_cached_second_time(self, tmp_path, capsys):
        argv = ["run", "--workload", "rank", "--backend", "smp-model",
                "--n", "256", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "(fresh)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_run_unknown_backend_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "nope", "--n", "64",
             "--no-cache"]
        ) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_bad_kv_pair_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "smp-model",
             "--n", "64", "--param", "listordered", "--no-cache"]
        ) == 2
        assert "expected K=V" in capsys.readouterr().err

    def test_retired_shards_option_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "cc", "--backend", "mta-engine",
             "--n", "64", "--opt", "shards=2", "--no-cache"]
        ) == 2
        assert "sharded runtime was removed" in capsys.readouterr().err

    def test_scalar_engine_kwargs_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "mta-engine",
             "--n", "64", "--opt", "engine_kwargs=5", "--no-cache"]
        ) == 2
        assert "engine_kwargs must be a mapping" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_sweep_runs_and_reruns_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--spec", "fig1-tiny", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        # stdout is byte-identical; only the stderr cache stats differ
        assert first.out == second.out
        assert "0/" in first.err.split("cache:")[1]  # cold: no hits
        assert "hits" in second.err

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--workers", "1", "--no-cache"]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--workers", "2", "--no-cache"]
        ) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_jsonl_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "rows.jsonl"
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--no-cache", "--jsonl", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"workload", "backend", "summary"} <= set(record)

    def test_unknown_spec_is_config_error(self, capsys):
        assert main(["sweep", "--spec", "fig9", "--no-cache"]) == 2
        assert "unknown sweep" in capsys.readouterr().err


class TestFlagValidation:
    """Count-valued flags reject values < 1 with a structured CLI error."""

    def test_sweep_workers_must_be_positive(self, capsys):
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--workers", "0", "--no-cache"]
        ) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_run_checkpoint_every_must_be_positive(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "mta-engine",
             "--n", "64", "--checkpoint-every", "0", "--no-cache"]
        ) == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["trace", "rank-mta", "--n", "64", "--out", "{out}"], id="trace-out"),
        pytest.param(["xval", "--n", "32", "--no-cache", "--jsonl", "{out}"], id="xval-jsonl"),
        pytest.param(
            ["analyze", "--workload", "cc", "--backend", "smp-engine", "--n", "32",
             "--jsonl", "{out}"],
            id="analyze-jsonl",
        ),
        pytest.param(["lint", "--jsonl", "{out}"], id="lint-jsonl"),
        pytest.param(
            ["sweep", "--spec", "fig1-tiny", "--no-cache", "--jsonl", "{out}"],
            id="sweep-jsonl",
        ),
        pytest.param(
            ["lint", "--write-state-baseline", "--state-baseline", "{out}"],
            id="lint-state-baseline",
        ),
    ],
)
def test_missing_output_directory_is_config_error(argv, tmp_path, capsys):
    """An output path in a missing directory exits 2 with a structured
    error before any work runs, instead of a traceback after it."""
    missing = tmp_path / "missing"
    out = str(missing / "out.txt")
    assert main([out if a == "{out}" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not exist" in err
    assert not missing.exists()
