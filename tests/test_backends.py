"""Tests for the backend registry and the five built-in backends."""

import dataclasses

import pytest

from repro import backends
from repro.backends import Workload, algorithms_for, create, describe, names, register
from repro.backends.base import canonical_json
from repro.errors import ConfigurationError

BUILTINS = ("cluster-model", "mta-engine", "mta-model", "smp-engine", "smp-model")


class TestRegistry:
    def test_all_five_builtins_registered(self):
        assert set(BUILTINS) <= set(names())

    def test_names_sorted(self):
        assert names() == sorted(names())

    def test_create_unknown_raises_with_candidates(self):
        with pytest.raises(ConfigurationError) as exc:
            create("mta-mode")
        assert "mta-mode" in str(exc.value)
        assert "mta-model" in str(exc.value)  # lists what IS registered

    def test_describe_rows(self):
        rows = {r["name"]: r for r in describe()}
        assert rows["smp-model"]["level"] == "model"
        assert rows["smp-engine"]["level"] == "engine"
        assert "rank" in rows["cluster-model"]["kinds"]
        assert rows["mta-model"]["description"]
        assert set(rows["mta-engine"]) == {
            "name", "level", "kinds", "machine", "hooks", "checkpoint", "xval",
            "description",
        }

    def test_duplicate_register_raises(self):
        with pytest.raises(ConfigurationError):
            register("smp-model", lambda: None)

    def test_replace_allows_reregistration(self):
        sentinel = object()
        register("test-backend", lambda: sentinel, description="v1")
        try:
            register("test-backend", lambda: sentinel, replace=True, description="v2")
            assert create("test-backend") is sentinel
        finally:
            backends.registry._REGISTRY.pop("test-backend", None)

    @pytest.mark.parametrize(
        "name, options",
        [
            ("mta-engine", {"config": {"mem_latency": 5}}),
            ("smp-model", {"bogus": 1}),
            ("cost-xval", {"config": 1}),
        ],
    )
    def test_unknown_option_is_configuration_error(self, name, options):
        with pytest.raises(ConfigurationError) as exc:
            create(name, **options)
        assert repr(name) in str(exc.value)
        assert all(key in str(exc.value) for key in options)

    def test_type_error_inside_a_factory_propagates(self):
        def factory(*, size=1):
            return len(size)  # TypeError from the body, not from binding

        register("test-backend", factory)
        try:
            with pytest.raises(TypeError):
                create("test-backend", size=3)
        finally:
            backends.registry._REGISTRY.pop("test-backend", None)


class TestWorkload:
    def test_canonical_round_trip(self):
        w = Workload("rank", 4, 7, {"n": 100, "list": "random"}, {"algorithm": "wyllie"})
        assert Workload.from_dict(w.canonical()) == w

    def test_canonical_is_json_stable(self):
        a = Workload("cc", params={"n": 10, "m": 20})
        b = Workload("cc", params={"m": 20, "n": 10})
        assert canonical_json(a.canonical()) == canonical_json(b.canonical())
        assert a.digest() == b.digest()

    def test_digest_changes_with_options(self):
        a = Workload("rank", params={"n": 64})
        b = Workload("rank", params={"n": 64}, options={"algorithm": "wyllie"})
        assert a.digest() != b.digest()

    def test_unsupported_kind_raises(self):
        with pytest.raises(ConfigurationError) as exc:
            create("smp-engine").run(Workload("tree", params={"leaves": 8}))
        assert "does not support" in str(exc.value)

    def test_algorithms_for_lists_registered_kernels(self):
        assert "helman-jaja" in algorithms_for("rank")
        assert "sv-smp" in algorithms_for("cc")


class TestEveryBackendRuns:
    """Every workload kind runs on every compatible backend through
    Backend.run and produces a well-formed RunSummary."""

    CASES = [
        ("smp-model", Workload("rank", 2, 1, {"n": 512, "list": "random"})),
        ("mta-model", Workload("rank", 2, 1, {"n": 512, "list": "random"})),
        ("cluster-model", Workload("rank", 2, 1, {"n": 512, "list": "random"})),
        ("smp-engine", Workload("rank", 2, 1, {"n": 96, "list": "random"}, {"s": 8})),
        (
            "mta-engine",
            Workload("rank", 2, 1, {"n": 128, "list": "random"},
                     {"streams_per_proc": 8, "nodes_per_walk": 4}),
        ),
        ("smp-model", Workload("cc", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        ("mta-model", Workload("cc", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        ("cluster-model", Workload("cc", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        (
            "smp-engine",
            Workload("cc", 2, 1, {"graph": "random", "n": 48, "m": 128},
                     {"max_iter": 16}),
        ),
        (
            "mta-engine",
            Workload("cc", 2, 1, {"graph": "random", "n": 48, "m": 128},
                     {"streams_per_proc": 8, "max_iter": 16}),
        ),
        ("smp-model", Workload("bfs", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        ("mta-model", Workload("msf", 2, 1, {"graph": "random", "n": 64, "m": 256})),
        ("cluster-model", Workload("tree", 2, 1, {"leaves": 64})),
        (
            "mta-engine",
            Workload("chase", 1, 0, {"chasers": 4},
                     {"steps": 4, "streams_per_proc": 8}),
        ),
    ]

    @pytest.mark.parametrize(
        "backend_name,workload",
        CASES,
        ids=[f"{b}-{w.kind}" for b, w in CASES],
    )
    def test_runs_and_reports(self, backend_name, workload):
        summary = create(backend_name).run(workload)
        assert summary.cycles > 0
        assert 0.0 <= summary.utilization <= 1.0
        d = summary.to_dict()
        assert d["detail"]["backend"] == backend_name
        # the record survives a canonical JSON round trip (cacheable)
        assert canonical_json(d)

    def test_native_algorithm_defaults(self):
        smp = create("smp-model").run(Workload("rank", 2, 1, {"n": 256, "list": "random"}))
        mta = create("mta-model").run(Workload("rank", 2, 1, {"n": 256, "list": "random"}))
        assert smp.detail["algorithm"] == "helman-jaja"
        assert mta.detail["algorithm"] == "mta-walks"


class TestEngineHooks:
    """``execute(handle, hooks=...)`` adds bus listeners to every engine
    a program builds without changing its result."""

    CASES = [
        ("smp-engine", Workload("rank", 2, 1, {"n": 96}, {"s": 8})),
        ("smp-engine", Workload("cc", 2, 1, {"graph": "random", "n": 48, "m": 128})),
    ] + [
        (backend, workload)
        for backend in ("mta-engine", "mta-next-engine")
        for workload in (
            Workload("rank", 2, 1, {"n": 128}, {"streams_per_proc": 8, "nodes_per_walk": 4}),
            Workload("cc", 2, 1, {"graph": "random", "n": 48, "m": 128},
                     {"streams_per_proc": 8}),
            Workload("chase", 1, 0, {"chasers": 4}, {"steps": 4, "streams_per_proc": 8}),
        )
    ]

    @pytest.mark.parametrize(
        "backend_name,workload", CASES, ids=[f"{b}-{w.kind}" for b, w in CASES]
    )
    def test_hooks_observe_without_changing_the_run(self, backend_name, workload):
        class RunCounter:
            runs = 0

            def end_run(self, report):
                self.runs += 1

        backend = create(backend_name)
        plain = backend.execute(backend.prepare(workload))
        counter = RunCounter()
        hooked = backend.execute(backend.prepare(workload), hooks=(counter,))
        assert hooked.to_dict() == plain.to_dict()
        assert counter.runs >= 1


class TestAnalyticConfigOverrides:
    def test_flat_override(self):
        b = create("smp-model", config={"name": "E4500-custom"})
        assert b.config.name == "E4500-custom"

    def test_nested_dataclass_override(self):
        b = create("smp-model", config={"l2": {"size_words": 1 << 18, "line_words": 16}})
        assert b.config.l2.size_words == 1 << 18
        # untouched nested fields keep their defaults
        default_l2 = create("smp-model").config.l2
        changed = {"size_words", "line_words"}
        for f in dataclasses.fields(default_l2):
            if f.name not in changed:
                assert getattr(b.config.l2, f.name) == getattr(default_l2, f.name)

    def test_bad_override_key_raises(self):
        with pytest.raises(ConfigurationError):
            create("smp-model", config={"no_such_field": 1})

    def test_bad_nested_key_raises(self):
        with pytest.raises(ConfigurationError):
            create("smp-model", config={"l2": {"no_such_field": 1}})

    def test_override_changes_timing(self):
        w = Workload("rank", 1, 5, {"n": 1 << 15, "list": "random"})
        base = create("smp-model").run(w)
        tiny_l2 = create("smp-model", config={"l2": {"size_words": 1 << 8}}).run(w)
        assert tiny_l2.cycles > base.cycles

    def test_instances_are_independent(self):
        a = create("smp-model")
        b = create("smp-model", config={"name": "other"})
        assert a.config.name != b.config.name
        assert dataclasses.is_dataclass(a.config)


class TestModelConfigValues:
    """The MTA and cluster model configs reject malformed values the way
    ``SMPConfig`` does: a ``ConfigurationError`` before anything runs."""

    @pytest.mark.parametrize(
        "backend, override",
        [
            ("mta-model", {"clock_hz": "x"}),
            ("mta-model", {"clock_hz": True}),
            ("mta-model", {"mem_latency_cycles": float("nan")}),
            ("mta-model", {"max_outstanding": 0}),
            ("mta-model", {"ops_per_instruction": 0}),
            ("mta-model", {"barrier_cycles": -1}),
            ("mta-model", {"phase_overhead_cycles": float("nan")}),
            ("cluster-model", {"clock_hz": True}),
            ("cluster-model", {"batching": float("nan")}),
            ("cluster-model", {"barrier_us": "x"}),
            ("cluster-model", {"rtt_us": -1}),
            ("cluster-model", {"cpi": float("nan")}),
            ("cluster-model", {"max_p": 0}),
            ("mta-model", {"streams_per_proc": 2.5}),
            ("mta-model", {"max_p": 2.5}),
            ("mta-model", {"max_outstanding": 8.0}),
            ("cluster-model", {"max_p": 2.5}),
        ],
        ids=str,
    )
    def test_malformed_value_is_configuration_error(self, backend, override):
        from repro.core.runner import Job, run_jobs

        job = Job(Workload("rank", 2, 0, {"n": 256}), backend,
                  backend_options={"config": override})
        with pytest.raises(ConfigurationError, match=next(iter(override))):
            run_jobs([job], workers=1, cache=False)


class TestIntegerSettings:
    """Integer workload options and engine parameters reject bools and
    non-integers with a ``ConfigurationError`` naming the setting,
    instead of running a machine with half a stream or a
    fractional-cycle latency.  Config fields are covered with the other
    malformed config values."""

    @pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
    def test_workload_option(self, value):
        from repro.core.runner import Job, run_jobs

        job = Job(Workload("rank", 2, 0, {"n": 256}, {"streams_per_proc": value}),
                  "mta-engine")
        with pytest.raises(ConfigurationError, match="streams_per_proc=.* is not an integer"):
            run_jobs([job], workers=1, cache=False)

    def test_int_value_keeps_integers(self):
        import numpy as np

        from repro.backends.base import int_value

        assert int_value({"k": np.int64(3)}, "k") == 3
        assert type(int_value({"k": np.int64(3)}, "k")) is int
        assert int_value({}, "k", 7) == 7

    @pytest.mark.parametrize("backend", ["mta-engine", "mta-next-engine"])
    @pytest.mark.parametrize(
        "param",
        ["streams_per_proc", "mem_latency", "lookahead", "max_outstanding",
         "barrier_latency", "n_banks"],
    )
    @pytest.mark.parametrize("value", [2.5, True], ids=repr)
    def test_engine_machine_parameter(self, backend, param, value):
        from repro.core.runner import Job, run_jobs

        w = Workload("rank", 2, 0, {"n": 256},
                     {"streams_per_proc": 8, "engine_kwargs": {param: value}})
        with pytest.raises(ConfigurationError, match=f"{param} must be an integer"):
            run_jobs([Job(w, backend)], workers=1, cache=False)


class TestSMPConfigOverrides:
    """Both SMP backends take the same config overrides, nested or flat,
    and reject malformed values as configuration errors."""

    def test_engine_nested_override_matches_direct_config(self):
        from repro.arch.cache import CacheConfig
        from repro.core.smp_machine import SUN_E4500
        from repro.graphs.programs import simulate_smp_cc

        w = Workload("cc", 2, 3, {"graph": "random", "n": 256, "m": 1024})
        backend = create("smp-engine", config={"l1": {"size_words": 256}})
        handle = backend.prepare(w)
        got = backend.execute(handle).to_dict()
        l1 = CacheConfig(size_words=256, line_words=SUN_E4500.l1.line_words)
        sim = simulate_smp_cc(handle.data, p=2, config=dataclasses.replace(SUN_E4500, l1=l1))
        want = sim.summary.to_dict()
        assert {k: v for k, v in got.items() if k != "detail"} == {
            k: v for k, v in want.items() if k != "detail"
        }
        assert {k: got["detail"][k] for k in want["detail"]} == want["detail"]
        default = create("smp-engine").execute(handle)
        assert default.cycles != got["cycles"]  # the override took effect

    @pytest.mark.parametrize("backend", ["smp-model", "smp-engine"])
    @pytest.mark.parametrize(
        "override",
        [
            {"stream_overlap": 0},
            {"store_buffer_depth": 0},
            {"cpi": "x"},
            {"cpi": True},
            {"l2_hit_cycles": "abc"},
            {"mem_cycles": -120},
            {"mispredict_penalty_cycles": -1},
            {"l2_effective_fraction": 0},
            {"l2_effective_fraction": 1.5},
            {"l1": 5},
            {"l2": {"size_words": 100}},
            {"l2": {"no_such_field": 1}},
            {"max_p": 3.7},
        ],
        ids=canonical_json,
    )
    def test_malformed_value_is_configuration_error(self, backend, override):
        from repro.core.runner import Job, run_jobs

        job = Job(Workload("rank", 2, 0, {"n": 256}), backend,
                  backend_options={"config": override})
        with pytest.raises(ConfigurationError):
            run_jobs([job], workers=1, cache=False)


class TestEngineOptionErrors:
    """Bad engine options fail as structured configuration errors."""

    ENGINES = ("smp-engine", "mta-engine", "mta-next-engine")

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize(
        "option, value",
        [("shards", 2), ("shard_workers", 2), ("shard_executor", "inline"),
         ("remote_latency", 50)],
    )
    def test_retired_shard_options_rejected(self, backend, option, value):
        w = Workload("cc", 4, 1, {"graph": "random", "n": 48, "m": 128},
                     {option: value})
        with pytest.raises(ConfigurationError, match="sharded runtime was removed"):
            create(backend).run(w)

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("value", [True, "strict"])
    def test_retired_check_option_rejected(self, backend, value):
        """Analysis runs through ``repro analyze`` (a CheckerHook); the
        old ``check`` option fails through the runner, not silently."""
        from repro.core.runner import Job, run_jobs

        w = Workload("rank", 2, 1, {"n": 64, "list": "random"}, {"check": value})
        with pytest.raises(ConfigurationError, match="repro analyze"):
            run_jobs([Job(w, backend)], workers=1, cache=False)

    def _rank(self, engine_kwargs):
        return Workload("rank", 2, 1, {"n": 64, "list": "random"},
                        {"streams_per_proc": 8, "engine_kwargs": engine_kwargs})

    @pytest.mark.parametrize(
        "backend, machine", [("mta-engine", "mta"), ("mta-next-engine", "mta-next")]
    )
    def test_unknown_engine_kwarg_names_the_machine(self, backend, machine):
        with pytest.raises(ConfigurationError, match=f"bad {machine} engine config"):
            create(backend).run(self._rank({"bogus": 1}))

    @pytest.mark.parametrize("key", ["p", "hooks", "session"])
    def test_engine_kwargs_cannot_set_run_arguments(self, key):
        with pytest.raises(ConfigurationError, match=f"engine_kwargs cannot set {key}"):
            create("mta-engine").run(self._rank({key: 2}))

    @pytest.mark.parametrize("backend", ["mta-engine", "mta-next-engine"])
    @pytest.mark.parametrize("engine_kwargs", [5, "mem_latency=5", [1, 2]])
    def test_non_mapping_engine_kwargs_rejected(self, backend, engine_kwargs):
        with pytest.raises(ConfigurationError, match="engine_kwargs must be a mapping"):
            create(backend).run(self._rank(engine_kwargs))
