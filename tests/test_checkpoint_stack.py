"""Checkpoint/resume through the full stack above the kernel.

Layers covered, top to bottom:

* **backends** — the ``checkpoint`` workload option: periodic artifacts,
  auto-resume from the newest artifact, explicit (strict) resume,
  ``fresh``, stale-artifact skipping, and the checker incompatibility;
* **cache** — ``SweepCache.key_for`` ignores the ``checkpoint`` option
  (resumed jobs share keys and records with uninterrupted ones), and
  ``CheckpointStore`` owns the artifact root (``<cache root>/checkpoints``
  by default) and their LRU prune;
* **runner** — artifacts default to the cache root; a cancelled sweep
  drains the in-flight job into a checkpoint, and resubmitting reuses
  cache entries *and* checkpoints without recomputing, byte-identical
  to an uninterrupted sweep;
* **service protocol / server** — ``checkpoint`` / ``resume_from``
  parsing, submission-key stability and separation, server-default
  merging;
* **CLI** — ``repro run --checkpoint-every/--resume``, ``repro
  checkpoint ls/info/rm``, ``repro cache --prune --max-checkpoints``
  (artifacts land under ``--cache-dir``), and the ``ckpt`` column of
  ``repro backends``.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import pytest

from repro.analysis import ConcurrencyChecker
from repro.backends import create, describe
from repro.backends.base import Workload
from repro.cli import main
from repro.core.cache import SweepCache
from repro.core.runner import Job, SweepCancelled, run_jobs
from repro.errors import CheckpointError, ConfigurationError
from repro.service.protocol import (
    ProtocolError,
    Submission,
    parse_submission,
    submission_key,
)
from repro.service.server import ExperimentService
from repro.sim import CheckerHook
from repro.sim.checkpoint import CheckpointStore, default_checkpoint_root

# ---------------------------------------------------------------------------
# backend layer: the ``checkpoint`` workload option
# ---------------------------------------------------------------------------


def _rank_workload(backend="smp-engine", seed=3, **options):
    opts = {"streams_per_proc": 8} if backend == "mta-engine" else {}
    opts.update(options)
    return Workload(
        kind="rank", p=2, seed=seed, params={"n": 400, "list": "random"}, options=opts
    )


@pytest.mark.parametrize("backend_name", ["smp-engine", "mta-engine"])
def test_backend_checkpoint_and_auto_resume(backend_name, tmp_path, capsys):
    backend = create(backend_name)
    baseline = backend.run(_rank_workload(backend_name)).to_dict()

    spec = {"every": 200, "dir": str(tmp_path)}
    first = backend.run(_rank_workload(backend_name, checkpoint=spec)).to_dict()
    assert first == baseline
    artifacts = list(tmp_path.glob("*/*.ckpt"))
    assert artifacts, "periodic checkpointing must persist artifacts"

    # second run auto-resumes the newest artifact: completed runs replay,
    # the in-flight one restores, and the summary stays byte-identical
    second = backend.run(_rank_workload(backend_name, checkpoint=spec)).to_dict()
    assert second == baseline
    assert "resumed from checkpoint" in capsys.readouterr().err


def test_backend_explicit_resume_and_fresh(tmp_path, capsys):
    backend = create("smp-engine")
    baseline = backend.run(_rank_workload()).to_dict()
    spec = {"every": 200, "dir": str(tmp_path)}
    backend.run(_rank_workload(checkpoint=spec))
    store = CheckpointStore(tmp_path)
    cid = store.entries()[-1][0].stem
    capsys.readouterr()

    explicit = dict(spec, resume=cid[:12])
    got = backend.run(_rank_workload(checkpoint=explicit)).to_dict()
    assert got == baseline
    assert "resumed from checkpoint" in capsys.readouterr().err

    # ``fresh`` ignores existing artifacts entirely
    fresh = backend.run(_rank_workload(checkpoint=dict(spec, fresh=True))).to_dict()
    assert fresh == baseline
    assert "resumed" not in capsys.readouterr().err

    # an explicit resume ref that matches nothing is a hard error
    with pytest.raises(CheckpointError, match="no checkpoint"):
        backend.run(_rank_workload(checkpoint=dict(spec, resume="ffff" * 16)))


_MALFORMED_SPECS = [
    1,
    [1, 2],
    "every=5",
    {"every": "x"},
    {"every": 2.5},
    {"every": 0},
    {"every": True},
    {"dir": ""},
    {"resume": 7},
    {"key": ""},
    {"evry": 5},
]


@pytest.mark.parametrize("spec", _MALFORMED_SPECS, ids=repr)
def test_malformed_checkpoint_option_is_configuration_error(spec, tmp_path):
    """The option is checked where it is consumed, by the rules the
    service applies to a submission's ``checkpoint`` object."""
    job = Job(workload=_rank_workload(checkpoint=spec), backend="smp-engine")
    with pytest.raises(ConfigurationError, match="checkpoint"):
        run_jobs([job], cache=False)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", [s for s in _MALFORMED_SPECS if s != {"key": ""}], ids=repr)
def test_malformed_run_jobs_checkpoint_is_configuration_error(spec):
    job = Job(workload=_rank_workload(), backend="smp-engine")
    with pytest.raises(ConfigurationError, match="checkpoint"):
        run_jobs([job], cache=False, checkpoint=spec)


def test_cli_malformed_checkpoint_option_exits_2(capsys):
    argv = ["run", "--workload", "rank", "--backend", "smp-engine", "--n", "64",
            "--p", "2", "--opt", "checkpoint=1", "--no-cache"]
    assert main(argv) == 2
    assert "checkpoint must be a mapping" in capsys.readouterr().err


def test_backend_skips_stale_artifacts_with_warning(tmp_path, capsys):
    backend = create("smp-engine")
    baseline = backend.run(_rank_workload()).to_dict()
    spec = {"every": 200, "dir": str(tmp_path)}
    backend.run(_rank_workload(checkpoint=spec))
    capsys.readouterr()

    # corrupt every artifact's payload: headers still parse (so the
    # store still offers them) but loading fails validation
    for path in tmp_path.glob("*/*.ckpt"):
        path.write_bytes(path.read_bytes()[:-8])

    got = backend.run(_rank_workload(checkpoint=spec)).to_dict()
    assert got == baseline  # fell back to a full re-run
    assert "ignoring stale checkpoint" in capsys.readouterr().err


def test_checkpoint_incompatible_with_concurrency_checker(tmp_path):
    backend = create("mta-engine")
    wl = _rank_workload("mta-engine", checkpoint={"every": 200, "dir": str(tmp_path)})
    hooks = (CheckerHook(ConcurrencyChecker()),)
    with pytest.raises(ConfigurationError, match="concurrency analysis"):
        backend.execute(backend.prepare(wl), hooks=hooks)


def test_engine_backends_advertise_checkpoint_capability():
    rows = {r["name"]: r["checkpoint"] for r in describe()}
    assert rows["smp-engine"] is True
    assert rows["mta-engine"] is True
    # analytic model backends have no kernel to snapshot
    assert rows["smp-model"] is False
    assert rows["mta-model"] is False


# ---------------------------------------------------------------------------
# cache layer
# ---------------------------------------------------------------------------


def test_cache_key_ignores_checkpoint_option():
    plain = _rank_workload().canonical()
    ckpt = _rank_workload(checkpoint={"every": 5, "dir": "/x"}).canonical()
    assert SweepCache.key_for(plain, "smp-engine", {}) == SweepCache.key_for(
        ckpt, "smp-engine", {}
    )
    other = _rank_workload(streams_per_proc=4).canonical()
    assert SweepCache.key_for(plain, "smp-engine", {}) != SweepCache.key_for(
        other, "smp-engine", {}
    )


def test_prune_checkpoints_lru(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    store = CheckpointStore(default_checkpoint_root(tmp_path))
    assert store.root == tmp_path / "checkpoints"
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env"))
    assert default_checkpoint_root(tmp_path) == tmp_path / "env"  # env wins
    group = store.root / "job0"
    group.mkdir(parents=True)
    now = time.time()
    for i in range(5):
        p = group / f"{i:064x}.ckpt"
        p.write_bytes(b"x" * 100)
        os.utime(p, (now + i, now + i))  # distinct mtimes, oldest first

    files = store.files()
    assert len(files) == 5
    assert sum(size for _, _, size in files) == 500

    evicted, freed = store.prune(max_entries=2)
    assert (evicted, freed) == (3, 300)
    survivors = sorted(p.name for p in group.glob("*.ckpt"))
    assert survivors == [f"{i:064x}.ckpt" for i in (3, 4)]  # newest kept

    evicted, freed = store.prune(max_bytes=50)
    assert evicted == 2 and not list(group.glob("*.ckpt"))
    assert store.prune() == (0, 0)  # no caps: no-op


# ---------------------------------------------------------------------------
# runner layer: cancel -> drain -> resubmit without recomputation
# ---------------------------------------------------------------------------


def _jobs():
    return [
        Job(
            workload=Workload(
                kind="rank",
                p=2,
                seed=seed,
                params={"n": 2000, "list": "random"},
                options={"streams_per_proc": 8},
            ),
            backend="mta-engine",
        )
        for seed in (1, 2)
    ]


def test_runner_checkpoints_default_to_cache_root(tmp_path, monkeypatch):
    """Without a ``dir``, run_jobs (behind run, sweep and serve) puts a
    job's artifacts under its cache root; $REPRO_CHECKPOINT_DIR wins."""
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    job = Job(workload=_rank_workload(), backend="smp-engine")
    run_jobs([job], cache=SweepCache(tmp_path / "c1"), checkpoint={"every": 200})
    assert list((tmp_path / "c1" / "checkpoints").glob("*/*.ckpt"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env"))
    run_jobs([job], cache=SweepCache(tmp_path / "c2"), checkpoint={"every": 200})
    assert list((tmp_path / "env").glob("*/*.ckpt"))
    assert not (tmp_path / "c2" / "checkpoints").exists()


def test_cancelled_sweep_resumes_without_recomputing(tmp_path, capsys):
    ckdir = tmp_path / "ck"
    baseline = run_jobs(_jobs(), cache=SweepCache(tmp_path / "cache-base"))

    # cancel once job 2 is *in flight*: the serial runner polls the hook
    # before each job and (via the checkpoint ``_stop`` plumbing) at
    # every snapshot boundary inside a run — return True only on a poll
    # after job 1 finished AND job 2 was allowed to start, so job 2
    # drains mid-run into a checkpoint rather than being skipped
    cache = SweepCache(tmp_path / "cache")
    state = {"job1_done": False, "polls_after": 0}

    def progress(done, total, job, cached):
        if done >= 1:
            state["job1_done"] = True

    def cancel():
        if not state["job1_done"]:
            return False
        state["polls_after"] += 1
        return state["polls_after"] > 1  # first poll is the pre-job check

    with pytest.raises(SweepCancelled) as exc_info:
        run_jobs(
            _jobs(),
            cache=cache,
            cancel=cancel,
            progress=progress,
            checkpoint={"every": 1000, "dir": str(ckdir)},
        )
    done = [r for r in exc_info.value.results if not r.cancelled]
    assert len(done) == 1
    assert list(ckdir.glob("*/*.ckpt")), "drain must persist the in-flight job"

    # resubmit: job 1 from cache, job 2 resumed from its artifact —
    # records byte-identical to the uninterrupted sweep
    capsys.readouterr()
    again = run_jobs(_jobs(), cache=cache, checkpoint={"every": 1000, "dir": str(ckdir)})
    assert again[0].cached
    assert not again[1].cached
    assert "resumed from checkpoint" in capsys.readouterr().err
    for b, a in zip(baseline, again, strict=False):
        assert a.record == b.record
        assert a.key == b.key

    # the resumed record was cached under the plain key: a third sweep
    # with no checkpointing at all is served entirely from cache
    third = run_jobs(_jobs(), cache=cache)
    assert all(r.cached for r in third)


# ---------------------------------------------------------------------------
# service protocol + server defaults
# ---------------------------------------------------------------------------

_JOB_BODY = {
    "workload": {"kind": "rank", "p": 2, "params": {"n": 64, "list": "random"}},
    "backend": "smp-model",
}


def test_protocol_parses_checkpoint_spec():
    sub = parse_submission({**_JOB_BODY, "checkpoint": {"every": 5, "dir": "/x"}})
    assert sub.checkpoint == {"every": 5, "dir": "/x"}
    assert "checkpoint" in sub.describe()

    sub = parse_submission({**_JOB_BODY, "resume_from": "abcd1234"})
    assert sub.checkpoint == {"resume": "abcd1234"}

    # shorthand merges into (and overrides) the spec's own resume
    sub = parse_submission(
        {**_JOB_BODY, "checkpoint": {"every": 2, "resume": "old"}, "resume_from": "new"}
    )
    assert sub.checkpoint == {"every": 2, "resume": "new"}

    assert parse_submission(dict(_JOB_BODY)).checkpoint is None


@pytest.mark.parametrize(
    "extra",
    [
        {"checkpoint": "notanobject"},
        {"checkpoint": {"every": 0}},
        {"checkpoint": {"every": True}},
        {"checkpoint": {"every": 5, "bogus": 1}},
        {"checkpoint": {"dir": ""}},
        {"checkpoint": {"resume": 7}},
        {"resume_from": ""},
        {"resume_from": 12},
    ],
)
def test_protocol_rejects_malformed_checkpoint(extra):
    with pytest.raises(ProtocolError):
        parse_submission({**_JOB_BODY, **extra})


def test_protocol_explicit_resume_requires_single_job():
    body = {"jobs": [dict(_JOB_BODY), dict(_JOB_BODY)], "resume_from": "abc"}
    with pytest.raises(ProtocolError, match="single-job"):
        parse_submission(body)
    # a batch *without* an explicit resume is fine (auto-resume per job)
    batch = parse_submission({"jobs": [dict(_JOB_BODY)] * 2, "checkpoint": {"every": 3}})
    assert len(batch.jobs) == 2


def test_submission_key_stable_without_checkpoint():
    plain = parse_submission(dict(_JOB_BODY))
    # no spec: the key is the historical jobs-only digest
    assert plain.key == submission_key(plain.jobs)
    assert plain.key == submission_key(plain.jobs, None)
    ck = parse_submission({**_JOB_BODY, "checkpoint": {"every": 5}})
    assert ck.key != plain.key  # resume/checkpoint submissions never coalesce
    assert isinstance(Submission(jobs=plain.jobs).key, str)


def test_server_merges_checkpoint_defaults():
    srv = ExperimentService(checkpoint_every=7, checkpoint_dir="/srv-ck")
    record = SimpleNamespace(submission=SimpleNamespace(checkpoint=None))
    assert srv._checkpoint_spec(record) == {"every": 7, "dir": "/srv-ck"}
    # the submission's own spec wins field by field
    record = SimpleNamespace(submission=SimpleNamespace(checkpoint={"every": 3}))
    assert srv._checkpoint_spec(record) == {"every": 3, "dir": "/srv-ck"}

    bare = ExperimentService()
    record = SimpleNamespace(submission=SimpleNamespace(checkpoint=None))
    assert bare._checkpoint_spec(record) is None

    with pytest.raises(ConfigurationError):
        ExperimentService(checkpoint_every=0)




# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


_RUN_ARGS = [
    "run",
    "--workload",
    "rank",
    "--backend",
    "smp-engine",
    "--n",
    "400",
    "--p",
    "2",
]


def test_cli_checkpoint_flow(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ck"))

    assert main(_RUN_ARGS + ["--checkpoint-every", "200"]) == 0
    store = CheckpointStore(tmp_path / "ck")
    entries = store.entries()
    assert entries, "CLI run must persist artifacts"
    cid = entries[-1][0].stem
    capsys.readouterr()

    assert main(["checkpoint", "ls"]) == 0
    out = capsys.readouterr().out
    assert cid[:16] in out

    assert main(["checkpoint", "info", cid[:12]]) == 0
    out = capsys.readouterr().out
    assert '"magic": "repro-ckpt"' in out and cid in out

    # explicit resume (bypass the result cache so the engine really runs)
    assert main(_RUN_ARGS + ["--no-cache", "--resume", cid[:12]]) == 0
    captured = capsys.readouterr()
    assert "resumed from checkpoint" in captured.err

    assert main(["checkpoint", "rm", cid[:12]]) == 0
    assert not entries[-1][0].exists()


def test_cli_cache_prune_checkpoints(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ck"))
    assert main(_RUN_ARGS + ["--checkpoint-every", "200"]) == 0
    store = CheckpointStore(tmp_path / "ck")
    total = len(store.entries())
    assert total >= 1
    capsys.readouterr()

    assert main(["cache", "--prune", "--max-checkpoints", "1"]) == 0
    out = capsys.readouterr().out
    assert len(store.entries()) == 1
    assert "checkpoint" in out


def test_cli_checkpoints_land_under_cache_dir(tmp_path, monkeypatch, capsys):
    """Without --checkpoint-dir, a command's artifacts live under its
    --cache-dir, where ``repro cache`` lists and prunes them."""
    monkeypatch.chdir(tmp_path)  # the default cache root must stay empty
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    cache_dir = tmp_path / "mycache"
    assert main(
        _RUN_ARGS + ["--cache-dir", str(cache_dir), "--checkpoint-every", "200"]
    ) == 0
    store = CheckpointStore(cache_dir / "checkpoints")
    total = len(store.entries())
    assert total >= 1
    assert not (tmp_path / ".repro-cache").exists()
    capsys.readouterr()

    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert f"checkpoints at {store.root}: {total} artifact(s)" in out

    argv = ["cache", "--cache-dir", str(cache_dir), "--prune", "--max-checkpoints", "0"]
    assert main(argv) == 0
    assert f"pruned {total} checkpoint artifact(s)" in capsys.readouterr().out
    assert not list(store.root.glob("*/*.ckpt"))


def test_cli_backends_lists_checkpoint_column(capsys):
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "ckpt" in out


def test_cli_checkpoint_ls_empty_store(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "nothing"))
    assert main(["checkpoint", "ls"]) == 0
    assert main(["checkpoint", "ls", "--dir", str(tmp_path / "also-nothing")]) == 0
