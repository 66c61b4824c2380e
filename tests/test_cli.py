"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim import TracerHook


def _run_record(capsys, *argv):
    """The ``repro run --json`` record for one workload."""
    assert main(["run", *argv, "--json", "--no-cache"]) == 0
    return json.loads(capsys.readouterr().out)


def _run_ms(capsys, *argv):
    """Simulated milliseconds of one ``repro run``, as the removed
    commands printed them (three decimals)."""
    s = _run_record(capsys, *argv)["summary"]
    return round(s["cycles"] / s["clock_hz"] * 1e3, 3)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["backends", "--json"],
            ["run", "--workload", "rank", "--backend", "smp-model", "--n", "100"],
            ["trace", "--workload", "cc", "--backend", "smp-engine", "--n", "64"],
            ["xval"],
            ["analyze", "--all"],
            ["lint"],
            ["sweep", "--spec", "fig1-tiny"],
            ["serve"],
            ["submit", "--spec", "fig1-tiny"],
            ["cache"],
            ["checkpoint", "ls"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0] and callable(args.func)

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--n", "100", "--p", "2"],
            ["cc", "--n", "64", "--edge-factor", "3"],
            ["fig1", "--max-n", "4096"],
            ["fig2", "--n", "1024"],
            ["table1", "--nodes-per-proc", "500"],
            ["trace", "rank-mta", "--streams", "8"],
        ],
        ids=["rank", "cc", "fig1", "fig2", "table1", "trace-positional"],
    )
    def test_removed_commands_do_not_parse(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    """``repro run`` reproduces every number the removed ``rank``,
    ``cc``, ``fig2`` and ``table1`` commands printed."""

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Sun-E4500" in out and "Cray-MTA2" in out

    def test_rank_both_machines(self, capsys):
        # `repro rank --n 4096 --p 2`: sequential, SMP Helman-JaJa, MTA walks
        rank = ["--workload", "rank", "--n", "4096"]
        assert _run_ms(
            capsys, *rank, "--backend", "smp-model", "--p", "1",
            "--opt", "algorithm=sequential",
        ) == 0.160
        assert _run_ms(capsys, *rank, "--backend", "smp-model", "--p", "2") == 0.466
        assert _run_ms(capsys, *rank, "--backend", "mta-model", "--p", "2") == 0.127

    def test_cc_four_machines(self, capsys):
        # `repro cc --n 1024 --edge-factor 4 --p 2`
        cc = ["--workload", "cc", "--n", "1024", "--param", "m=4096"]
        assert _run_ms(
            capsys, *cc, "--backend", "smp-model", "--p", "1",
            "--opt", "algorithm=union-find",
        ) == 0.281
        assert _run_ms(capsys, *cc, "--backend", "smp-model", "--p", "2") == 0.526
        assert _run_ms(
            capsys, *cc, "--backend", "mta-model", "--p", "2", "--opt", "max_iter=600"
        ) == 0.472
        assert _run_ms(capsys, *cc, "--backend", "cluster-model", "--p", "2") == 111.405

    def test_rank_ordered(self, capsys):
        record = _run_record(
            capsys, "--workload", "rank", "--backend", "smp-model", "--n", "2048",
            "--param", "list=ordered",
        )
        assert record["summary"]["detail"]["list"] == "ordered"

    @pytest.mark.parametrize(
        "graph,params",
        [("random", ["m=4096"]), ("rmat", ["scale=10", "edge_factor=4"]), ("mesh", ["side=32"])],
        ids=["random", "rmat", "mesh"],
    )
    def test_cc_graph_families(self, graph, params, capsys):
        argv = ["--workload", "cc", "--backend", "smp-model", "--n", "1024",
                "--param", f"graph={graph}"]
        for kv in params:
            argv += ["--param", kv]
        detail = _run_record(capsys, *argv)["summary"]["detail"]
        assert detail["graph"] == graph
        assert detail["algorithm"] == "sv-smp"

    def test_fig2_table(self, capsys):
        # first row of `repro fig2 --n 4096`: m=16384, SMP 0.0007 s, MTA 0.0007 s, 1.0x
        point = ["--workload", "cc", "--n", "4096", "--p", "8", "--seed", "1",
                 "--param", "m=16384", "--opt", "instrument_p=1"]
        t_smp = _run_ms(capsys, *point, "--backend", "smp-model") / 1e3
        t_mta = _run_ms(capsys, *point, "--backend", "mta-model") / 1e3
        assert f"{t_smp:.4f} {t_mta:.4f} {t_smp / t_mta:.1f}" == "0.0007 0.0007 1.0"

    def test_table1(self, capsys):
        # p=4 row of `repro table1 --nodes-per-proc 500`
        summary = _run_record(
            capsys, "--workload", "rank", "--backend", "mta-engine", "--n", "2000",
            "--p", "4",
        )["summary"]
        assert f"{summary['utilization']:.1%}" == "36.7%"

    def test_workload_error_exit_code(self, capsys):
        # p = 0 is a configuration error surfaced as exit code 2
        assert main(
            ["run", "--workload", "rank", "--backend", "smp-model", "--n", "16",
             "--p", "0", "--no-cache"]
        ) == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--workload", "cc", "--param", "graph=rmat"], id="rmat-without-scale"),
        pytest.param(["--workload", "cc", "--param", "m=abc"], id="param-m"),
        pytest.param(
            ["--workload", "cc", "--param", "graph=rmat", "--param", "scale=abc"],
            id="param-scale",
        ),
        pytest.param(
            ["--workload", "chase", "--backend", "mta-engine", "--param", "chasers=abc"],
            id="param-chasers",
        ),
        pytest.param(
            ["--workload", "rank", "--backend", "mta-engine", "--opt", "streams_per_proc=abc"],
            id="opt-streams-mta-engine",
        ),
        pytest.param(
            ["--workload", "chase", "--backend", "mta-engine", "--opt", "steps=abc"],
            id="opt-steps-chase",
        ),
        pytest.param(
            ["--workload", "cc", "--backend", "smp-engine", "--opt", "max_iter=abc"],
            id="opt-max-iter-smp-engine",
        ),
        pytest.param(["--workload", "rank", "--opt", "s=abc"], id="opt-s-smp-model"),
        pytest.param(
            ["--workload", "rank", "--opt", "algorithm=compaction", "--opt", "fanout=abc"],
            id="opt-fanout-smp-model",
        ),
        pytest.param(["--workload", "cc", "--opt", "max_iter=abc"], id="opt-max-iter-smp-model"),
        pytest.param(["--workload", "cc", "--param", "m=-3"], id="param-m-negative"),
        pytest.param(
            ["--workload", "rank", "--backend", "mta-engine", "--opt", "streams_per_proc=2.5"],
            id="opt-streams-fractional",
        ),
        pytest.param(
            ["--workload", "rank", "--backend", "mta-engine", "--opt", "streams_per_proc=true"],
            id="opt-streams-bool",
        ),
        pytest.param(["--workload", "rank", "--param", "n=64.0"], id="param-n-float"),
    ],
)
def test_malformed_workload_values_are_config_errors(argv, capsys):
    """Bad params and options exit 2 with a structured error, not a
    traceback (the backend defaults to smp-model, the size to n=64)."""
    if "--backend" not in argv:
        argv = [*argv, "--backend", "smp-model"]
    assert main(["run", "--n", "64", "--p", "2", *argv, "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_opt_carries_a_json_mapping(capsys):
    """A value starting with ``{`` or ``[`` parses as JSON, so ``--opt``
    can carry the ``engine_kwargs`` mapping: the record is the one
    ``run_jobs`` writes for the same dict."""
    from repro.backends import Workload
    from repro.core.runner import Job, run_jobs

    assert main(["run", "--workload", "rank", "--backend", "mta-engine", "--n", "400",
                 "--p", "2", "--opt", "streams_per_proc=8",
                 "--opt", 'engine_kwargs={"barrier_latency": 40}', "--json",
                 "--no-cache"]) == 0
    options = {"streams_per_proc": 8, "engine_kwargs": {"barrier_latency": 40}}
    [result] = run_jobs(
        [Job(Workload("rank", 2, 0, {"n": 400}, options), "mta-engine")], cache=False
    )
    assert capsys.readouterr().out == result.jsonl() + "\n"


@pytest.mark.parametrize("flag, pair", [
    ("--opt", 'engine_kwargs={"barrier_latency": 40'),
    ("--opt", "engine_kwargs=[1,"),
    ("--param", "n={n}"),
])
def test_malformed_json_value_exits_2(flag, pair, capsys):
    argv = ["run", "--workload", "rank", "--backend", "mta-engine", "--n", "64",
            "--p", "2", flag, pair, "--no-cache"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {flag} {pair!r}: ") and "Traceback" not in err


def test_scalar_kv_values_parse_as_before():
    from repro.cli import _parse_kv

    pairs = ["a=1", "b=-2", "c=2.5", "d=1e3", "e=true", "f=False", "g=abc", "h=", "i=a=b",
             "j=x{y}"]
    assert _parse_kv(pairs, "--opt") == {
        "a": 1, "b": -2, "c": 2.5, "d": 1000.0, "e": True, "f": False, "g": "abc",
        "h": "", "i": "a=b", "j": "x{y}",
    }
    assert _parse_kv(['k={"x": [1, 2.5, true]}', "l=[]"], "--param") == {
        "k": {"x": [1, 2.5, True]}, "l": [],
    }


def _direct_rank_mta(tracer):
    from repro.lists import random_list
    from repro.lists.programs import simulate_mta_list_ranking

    return simulate_mta_list_ranking(
        random_list(256, 0), p=2, streams_per_proc=8, hooks=(TracerHook(tracer),)
    )


def _direct_cc_smp(tracer):
    from repro.graphs import random_graph
    from repro.graphs.programs import simulate_smp_cc

    return simulate_smp_cc(random_graph(128, 512, rng=0), p=2, hooks=(TracerHook(tracer),))


class TestTrace:
    def test_trace_parses(self):
        args = build_parser().parse_args(
            ["trace", "--workload", "rank", "--backend", "mta-engine",
             "--n", "256", "--p", "2", "--level", "op"]
        )
        assert args.command == "trace"
        assert (args.workload, args.backend) == ("rank", "mta-engine")

    def test_trace_rejects_unknown_workload(self, capsys):
        assert main(["trace", "--workload", "sort", "--backend", "mta-engine"]) == 2
        assert "does not support workload kind 'sort'" in capsys.readouterr().err

    def test_trace_rejects_model_backend(self, capsys):
        assert main(["trace", "--workload", "rank", "--backend", "smp-model"]) == 2
        assert "not a cycle engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--workload", "rank", "--backend", "mta-engine"], id="rank-mta"),
            pytest.param(["--workload", "rank", "--backend", "smp-engine"], id="rank-smp"),
            pytest.param(
                ["--workload", "cc", "--backend", "mta-engine", "--param", "m=1024"],
                id="cc-mta",
            ),
            pytest.param(
                ["--workload", "cc", "--backend", "smp-engine", "--param", "m=1024"],
                id="cc-smp",
            ),
            pytest.param(
                ["--workload", "chase", "--backend", "mta-next-engine",
                 "--param", "chasers=16"],
                id="chase-mta-next",
            ),
        ],
    )
    def test_trace_chrome_output(self, argv, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert (
            main(
                [
                    "trace", *argv,
                    "--n", "256", "--p", "2",
                    "--opt", "streams_per_proc=8",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "utilization" in text and "Perfetto" in text

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

    @pytest.mark.parametrize(
        "argv,direct",
        [
            pytest.param(
                ["--workload", "rank", "--backend", "mta-engine", "--n", "256",
                 "--opt", "streams_per_proc=8"],
                _direct_rank_mta,
                id="rank-mta",
            ),
            pytest.param(
                ["--workload", "cc", "--backend", "smp-engine", "--n", "128",
                 "--param", "m=512"],
                _direct_cc_smp,
                id="cc-smp",
            ),
        ],
    )
    def test_trace_matches_direct_simulation(self, argv, direct, tmp_path, capsys):
        """The backend path records the same events and profile as the
        program's ``simulate_*`` entry point with a tracer attached."""
        from repro.obs import ContentionProfile, Tracer, jsonl_dumps

        out = tmp_path / "t.jsonl"
        assert main(
            ["trace", *argv, "--p", "2", "--level", "op", "--format", "jsonl",
             "--out", str(out)]
        ) == 0
        text = capsys.readouterr().out
        tracer = Tracer("op")
        sim = direct(tracer)
        assert out.read_text() == jsonl_dumps(tracer.events)
        profile = ContentionProfile.from_report(sim.report).render()
        assert text.startswith(f"{sim.summary.table()}\n\n{profile}\n\n")

    def test_trace_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "trace", "--workload", "rank", "--backend", "smp-engine",
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
        assert main(
            ["trace", "--workload", "rank", "--backend", "smp-engine",
             "--n", "128", "--p", "2"]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "trace-rank-smp-engine.json").exists()


class TestBackendsCommand:
    def test_lists_all_five(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in (
            "smp-model", "mta-model", "cluster-model", "smp-engine", "mta-engine"
        ):
            assert name in out

    def test_json_output(self, capsys):
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
        assert main(
            ["run", "--workload", "cc", "--backend", "mta-model",
             "--n", "128", "--param", "m=512", "--param", "graph=random",
             "--json", "--no-cache"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "mta-model"
        assert record["summary"]["detail"]["algorithm"] == "sv-mta"

    def test_run_json_records_append_as_jsonl(self, capsys):
        outputs = []
        for n in ("128", "256"):
            assert main(
                ["run", "--workload", "rank", "--backend", "smp-model", "--n", n,
                 "--json", "--no-cache"]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert all(out.endswith("}\n") for out in outputs)
        lines = "".join(outputs).splitlines()
        assert [json.loads(line)["workload"]["params"]["n"] for line in lines] == [128, 256]

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

    def test_retired_check_option_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "cc", "--backend", "smp-engine",
             "--n", "64", "--opt", "check=1", "--no-cache"]
        ) == 2
        err = capsys.readouterr().err
        assert "check" in err and "repro analyze" in err and "Traceback" not in err

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
        pytest.param(
            ["trace", "--workload", "rank", "--backend", "mta-engine", "--n", "64",
             "--out", "{out}"],
            id="trace-out",
        ),
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
