"""A stream count, walk length or chunk size below 1 is a configuration error.

``edges_per_chunk=0`` used to hang the MTA CC engine (each graft stream
fetch-added 0 and re-read the same empty chunk until the watchdog) and
crash the xval counterpart with a ``ZeroDivisionError``;
``streams_per_proc=0`` on MTA list ranking failed with an unrelated
barrier error, and ``nodes_per_walk`` of 0 or below ran silently as 1.
The MTA programs and the Alg. 3 counterpart now share one check, made
before any engine phase or counterpart step runs.

So are the MTA engine's latency settings below their least legal value
(the analytic ``MTAConfig``'s rules, with a lookahead of 0 allowed): a
negative ``barrier_latency`` released waiters before they arrived and
recorded wrong barrier waits, and a negative ``lookahead`` or
``max_outstanding`` ran silently as 0.  ``MTAMachine`` checks them when
the first phase's engine is built.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.backends import Workload
from repro.core import Job, run_jobs
from repro.errors import ConfigurationError
from repro.graphs import random_graph
from repro.lists import random_list
from repro.lists.programs import simulate_mta_list_ranking
from repro.sim import MTAEngine
from repro.sim.kernel import Engine
from repro.xval.counterpart import _mta_cc_steps

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_CC = {"graph": "random", "n": 64, "m": 128}

#: (workload kind, backend, params, options, option named by the error)
BAD = [
    ("cc", "mta-engine", _CC, {"edges_per_chunk": 0}, "edges_per_chunk"),
    ("cc", "mta-engine", _CC, {"edges_per_chunk": -1}, "edges_per_chunk"),
    ("cc", "mta-engine", _CC, {"streams_per_proc": 0}, "streams_per_proc"),
    ("cc", "mta-next-engine", _CC, {"edges_per_chunk": 0}, "edges_per_chunk"),
    ("cc", "cost-xval", _CC, {"machine": "mta", "edges_per_chunk": 0}, "edges_per_chunk"),
    ("cc", "cost-xval", _CC, {"machine": "mta", "streams_per_proc": -2}, "streams_per_proc"),
    ("rank", "mta-engine", {"n": 64}, {"streams_per_proc": 0}, "streams_per_proc"),
    ("rank", "mta-next-engine", {"n": 64}, {"streams_per_proc": -1}, "streams_per_proc"),
    ("rank", "mta-engine", {"n": 64}, {"nodes_per_walk": 0}, "nodes_per_walk"),
    ("rank", "mta-engine", {"n": 64}, {"nodes_per_walk": -5}, "nodes_per_walk"),
    ("rank", "mta-next-engine", {"n": 64}, {"nodes_per_walk": 0}, "nodes_per_walk"),
]


def _job(kind, backend, params, options):
    return Job(Workload(kind, 2, 0, params, options), backend)


@pytest.mark.parametrize(
    "kind, backend, params, options, name", BAD,
    ids=[f"{kind}-{backend}-{name}={opts[name]}" for kind, backend, _, opts, name in BAD],
)
def test_run_jobs_rejects_before_any_engine_phase(monkeypatch, kind, backend, params,
                                                  options, name):
    runs = []
    real_run = Engine.run

    def counted_run(self, *args, **kwargs):
        runs.append(args)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", counted_run)
    with pytest.raises(ConfigurationError, match=f"{name} must be >= 1"):
        run_jobs([_job(kind, backend, params, options)], workers=1, cache=False)
    assert runs == []


#: (engine option, bad value, least legal value)
BAD_MACHINE = [
    ("barrier_latency", -50, 0),
    ("lookahead", -2, 0),
    ("max_outstanding", -3, 1),
    ("max_outstanding", 0, 1),
]


def _rank_job(backend, engine_kwargs):
    params = {"n": 400, "list": "random"}
    options = {"streams_per_proc": 8, "engine_kwargs": engine_kwargs}
    return Job(Workload("rank", 2, 1, params, options), backend)


@pytest.mark.parametrize(
    "name, value, least", BAD_MACHINE, ids=[f"{n}={v}" for n, v, _ in BAD_MACHINE]
)
def test_engine_latency_settings_rejected_before_any_engine_phase(monkeypatch, name, value,
                                                                  least):
    runs = []
    monkeypatch.setattr(Engine, "run", lambda self, *args, **kwargs: runs.append(args))
    message = f"{name} must be >= {least}, got {value}"
    with pytest.raises(ConfigurationError, match=message):
        MTAEngine(p=2, **{name: value})
    with pytest.raises(ConfigurationError, match=message):
        simulate_mta_list_ranking(random_list(64, rng=0), 2, streams_per_proc=4,
                                  engine_kwargs={name: value})
    for backend in ("mta-engine", "mta-next-engine"):
        with pytest.raises(ConfigurationError, match=message):
            run_jobs([_rank_job(backend, {name: value})], workers=1, cache=False)
    assert runs == []


def test_zero_lookahead_and_barrier_latency_stay_legal():
    (result,) = run_jobs([_rank_job("mta-engine", {"lookahead": 0, "barrier_latency": 0})],
                         workers=1, cache=False)
    assert result.summary["cycles"] > 0


@pytest.mark.parametrize("name", ["streams_per_proc", "edges_per_chunk"])
@pytest.mark.parametrize("value", [0, -1])
def test_counterpart_rejects_before_any_step(name, value):
    counts = {"streams_per_proc": 100, "edges_per_chunk": 16, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be >= 1, got {value}"):
        _mta_cc_steps(random_graph(64, 128, rng=0), 2, max_iter=64, **counts)


@pytest.mark.parametrize("value", [0, -5])
def test_list_ranking_rejects_walk_length_before_any_engine_phase(monkeypatch, value):
    runs = []
    monkeypatch.setattr(Engine, "run", lambda self, *args, **kwargs: runs.append(args))
    with pytest.raises(ConfigurationError, match=f"nodes_per_walk must be >= 1, got {value}"):
        simulate_mta_list_ranking(random_list(64, rng=0), 2, streams_per_proc=4,
                                  nodes_per_walk=value)
    assert runs == []


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--workload", "cc", "--backend", "mta-engine", "--param", "m=128",
          "--opt", "edges_per_chunk=0"], "edges_per_chunk"),
        (["--workload", "cc", "--backend", "mta-engine", "--param", "m=128",
          "--opt", "edges_per_chunk=-1"], "edges_per_chunk"),
        (["--workload", "cc", "--backend", "cost-xval", "--param", "m=128",
          "--opt", "machine=mta", "--opt", "edges_per_chunk=0"], "edges_per_chunk"),
        (["--workload", "rank", "--backend", "mta-engine",
          "--opt", "streams_per_proc=0"], "streams_per_proc"),
        (["--workload", "rank", "--backend", "mta-engine", "--opt", "streams_per_proc=4",
          "--opt", "nodes_per_walk=0"], "nodes_per_walk"),
        (["--workload", "rank", "--backend", "mta-engine", "--opt", "streams_per_proc=4",
          "--opt", "nodes_per_walk=-5"], "nodes_per_walk"),
    ],
    ids=["cc-chunk-0", "cc-chunk-neg", "xval-chunk-0", "rank-streams-0", "rank-walk-0",
         "rank-walk-neg"],
)
def test_cli_exits_2_within_seconds(argv, name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--n", "64", "--p", "2", *argv, "--no-cache"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {name} must be >= 1")
    assert "Traceback" not in proc.stderr


def test_service_job_fails_with_execution_error(tmp_path):
    from .test_service import Harness, rank_body

    h = Harness(cache=str(tmp_path / "cache"), job_workers=0).start()
    try:
        c = h.client()
        body = rank_body(n=64, backend="mta-engine")
        body["workload"]["options"] = {"streams_per_proc": 0}
        cc = {"workload": {"kind": "cc", "p": 2, "seed": 0, "params": _CC,
                           "options": {"edges_per_chunk": 0}},
              "backend": "mta-engine"}
        latency = rank_body(n=64, backend="mta-engine")
        latency["workload"]["options"] = {"streams_per_proc": 4,
                                          "engine_kwargs": {"barrier_latency": -50}}
        for submitted, message in ((body, "streams_per_proc must be >= 1"),
                                   (cc, "edges_per_chunk must be >= 1"),
                                   (latency, "barrier_latency must be >= 0, got -50")):
            final = c.wait(c.submit(submitted)["id"], timeout=30)
            assert final["state"] == "failed"
            assert final["error"]["code"] == "execution_error"
            assert message in final["error"]["message"]
    finally:
        h.stop()
