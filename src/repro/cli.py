"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library for quick studies
without writing Python:

``info``
    Machine configurations and library version.
``backends``
    List the registered execution backends (three analytic machine
    models, three cycle-level engines, the ``cost-xval`` pairing, plus
    anything user-registered).
``run``
    Run one declarative workload on one backend through the sweep
    runner: ``repro run --workload rank --backend smp-model --n 65536
    --p 8``.  Every point of the paper's figures and tables is one
    ``run`` (and every whole figure one ``sweep``) away.
``trace``
    Run one workload on a cycle-engine backend with tracing on
    (``repro trace --workload rank --backend mta-engine``); writes a
    Chrome ``trace_event`` JSON (load it at https://ui.perfetto.dev) or
    compact JSONL, and prints the per-phase summary and the contention
    profile merged over every engine run of the program.
``xval``
    Cross-validate an analytic machine model against the matching
    cycle engine on one workload: both stacks run the identical input,
    their per-phase cycles pair under one prediction contract, and the
    divergence report (worst offenders, branch-cost attribution)
    prints as a table or deterministic JSONL.  See ``docs/MODELS.md``,
    "The prediction contract".
``analyze``
    Concurrency-correctness analysis: run a workload (or every
    registered paper program with ``--all``) on a cycle engine under
    the happens-before race detector and lint pass; print findings (or
    ``--jsonl``) and exit 1 when errors are found.  See
    ``docs/ANALYSIS.md``.
``lint``
    Static analysis of the repo's own sources against its invariants
    (determinism, state contracts, hook/engine discipline, generator
    shape); same output schema and flags as ``analyze`` (``--jsonl``,
    ``--strict``), exit 1 on errors.  Must pass before every PR.
``sweep``
    Execute a named figure/table sweep (``fig1``, ``fig2``, ``table1``
    and their ``-tiny`` variants) across every grid point, with a
    process pool (``--workers N``) and the on-disk result cache; cache
    statistics go to stderr so stdout stays byte-identical between cold
    and warm runs.
``serve``
    Run the async experiment service: a JSON-over-HTTP job API with
    request coalescing, bounded admission (``queue_full``
    backpressure), per-job timeouts, and ``GET /v1/metrics``.  Drains
    gracefully on SIGINT/SIGTERM.  See ``docs/SERVICE.md``.
``submit``
    Submit a workload or named sweep to a running service and (by
    default) poll it to completion.
``cache``
    Inspect the on-disk result cache; ``--prune`` evicts
    least-recently-used records down to ``--max-entries`` /
    ``--max-bytes`` (or clears it, with no caps), and checkpoint
    artifacts down to ``--max-checkpoints`` / ``--max-checkpoint-bytes``.
``checkpoint``
    Inspect checkpoint artifacts: ``ls`` lists them (headers only, no
    payload decode), ``info <ref>`` dumps one header, ``rm <ref>``
    deletes one.  ``repro run --checkpoint-every N`` writes them;
    ``--resume`` restores an explicit artifact.  See
    ``docs/SIMULATION.md``, "Checkpoint & resume".

``run``, ``trace``, ``analyze`` and ``submit`` share the workload
flags ``--workload/--backend/--n/--p/--seed/--param K=V/--opt K=V``.
Every command accepts ``--help``.  Exit code 0 on success; workload or
configuration errors print a message and return 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import __version__
from .errors import ConfigurationError, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for doc generation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Bader, Cong & Feo (ICPP 2005): "
        "graph algorithms on simulated SMP and MTA machines.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show machine configurations").set_defaults(func=_cmd_info)

    p_tr = sub.add_parser(
        "trace", help="record a cycle-engine backend run as an event trace"
    )
    _add_workload_args(p_tr, n=2048, p=4)
    p_tr.add_argument(
        "--level",
        choices=("phase", "op"),
        default="phase",
        help="phase spans only, or one span per machine operation",
    )
    p_tr.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        dest="fmt",
        help="chrome trace_event JSON (Perfetto-loadable) or compact JSONL",
    )
    p_tr.add_argument(
        "--out",
        default=None,
        help="output path (default: trace-<workload>-<backend>.json / .jsonl)",
    )
    p_tr.set_defaults(func=_cmd_trace)

    p_be = sub.add_parser("backends", help="list registered execution backends")
    p_be.add_argument("--json", action="store_true", help="machine-readable output")
    p_be.set_defaults(func=_cmd_backends)

    p_run = sub.add_parser(
        "run", help="run one workload on one backend via the sweep runner"
    )
    _add_workload_args(p_run)
    p_run.add_argument("--json", action="store_true", help="print the full record as JSON")
    _add_cache_args(p_run)
    _add_checkpoint_args(p_run)
    p_run.add_argument(
        "--resume",
        default=None,
        metavar="REF",
        help="resume from an explicit checkpoint artifact (path or content"
        " id); a stale artifact is an error",
    )
    p_run.set_defaults(func=_cmd_run)

    p_xv = sub.add_parser(
        "xval", help="cross-validate an analytic model against a cycle engine"
    )
    p_xv.add_argument(
        "--workload",
        default="cc",
        help="workload kind (pairs with an analytic counterpart: cc)",
    )
    p_xv.add_argument(
        "--machine",
        default="smp",
        help="machine family both stacks model (smp or mta)",
    )
    p_xv.add_argument("--n", type=int, default=192, help="vertices")
    p_xv.add_argument("--m", type=int, default=None, help="edges (default 2n)")
    p_xv.add_argument("--p", type=int, default=4, help="processors")
    p_xv.add_argument("--seed", type=int, default=1)
    p_xv.add_argument(
        "--variant",
        default=None,
        choices=("branchy", "branch-avoiding"),
        help="SMP kernel variant (default: branchy on the SMP)",
    )
    p_xv.add_argument(
        "--penalty",
        type=float,
        default=None,
        help="SMP mispredict penalty in cycles, applied to both stacks"
        " (default 4)",
    )
    p_xv.add_argument("--max-iter", type=int, default=64)
    p_xv.add_argument(
        "--top",
        type=int,
        default=3,
        help="list the K worst phases by relative error (0 disables)",
    )
    p_xv.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="write the report as deterministic JSON Lines ('-' = stdout)",
    )
    p_xv.add_argument("--json", action="store_true", help="full report as JSON")
    _add_cache_args(p_xv)
    p_xv.set_defaults(func=_cmd_xval)

    p_an = sub.add_parser(
        "analyze", help="concurrency analysis of a workload's op streams"
    )
    _add_workload_args(p_an, required=False, backend="mta-engine", p=2)
    p_an.add_argument(
        "--all",
        action="store_true",
        dest="all_programs",
        help="analyze every registered paper program instead of one workload",
    )
    p_an.add_argument(
        "--strict",
        action="store_true",
        help="report races inside allow_racy-annotated regions too",
    )
    p_an.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="write findings as JSON Lines ('-' = stdout)",
    )
    p_an.add_argument(
        "--max-findings",
        type=int,
        default=200,
        help="cap on findings printed or written per program (the status"
        " line and exit code count them all)",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_li = sub.add_parser(
        "lint", help="static analysis of the repo's own sources"
    )
    p_li.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/repro + benchmarks)",
    )
    p_li.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="ID",
        help="restrict to a rule id or family (determinism, state,"
        " discipline, shape); repeatable",
    )
    p_li.add_argument(
        "--strict",
        action="store_true",
        help="surface annotation-suppressed findings as warnings",
    )
    p_li.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="write findings as JSON Lines ('-' = stdout)",
    )
    p_li.add_argument(
        "--state-baseline",
        default=None,
        metavar="PATH",
        help="state-contract baseline to compare against"
        " (default tests/golden/state_contracts.json)",
    )
    p_li.add_argument(
        "--write-state-baseline",
        action="store_true",
        help="regenerate the state-contract baseline from the current tree"
        " and exit",
    )
    p_li.set_defaults(func=_cmd_lint)

    p_sw = sub.add_parser("sweep", help="run a named figure/table sweep")
    p_sw.add_argument(
        "--spec",
        required=True,
        help="sweep name: fig1, fig2, table1, or their -tiny variants",
    )
    p_sw.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )
    p_sw.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also write one RunSummary record per job as JSON Lines ('-' = stdout)",
    )
    _add_cache_args(p_sw)
    _add_checkpoint_args(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_sv = sub.add_parser(
        "serve", help="run the async experiment service (JSON over HTTP)"
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8787)
    p_sv.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission bound; submissions beyond it get a queue_full rejection",
    )
    p_sv.add_argument(
        "--dispatchers", type=int, default=2, help="concurrent executions"
    )
    p_sv.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="runner process-pool size per execution (1 = serial)",
    )
    p_sv.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-submission wall-clock budget (none = unlimited)",
    )
    p_sv.add_argument(
        "--cache-max-entries", type=int, default=None, help="LRU cap on cache records"
    )
    p_sv.add_argument(
        "--cache-max-bytes", type=int, default=None, help="LRU cap on cache bytes"
    )
    _add_cache_args(p_sv)
    _add_checkpoint_args(p_sv)
    p_sv.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a workload or sweep to a running service"
    )
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8787)
    p_sub.add_argument(
        "--spec", default=None, help="named sweep (fig1, fig1-tiny, ...)"
    )
    _add_workload_args(p_sub, required=False)
    p_sub.add_argument("--priority", type=int, default=0)
    p_sub.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-submission wall-clock budget",
    )
    p_sub.add_argument("--label", default="", help="free-form label echoed in views")
    p_sub.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="ask the service to snapshot the execution every N steps/cycles",
    )
    p_sub.add_argument(
        "--resume-from",
        default=None,
        metavar="REF",
        help="ask the service to resume from a checkpoint artifact",
    )
    p_sub.add_argument(
        "--no-wait",
        action="store_true",
        help="return the job id immediately instead of polling to completion",
    )
    p_sub.add_argument(
        "--wait-timeout", type=float, default=600.0, help="polling budget (seconds)"
    )
    p_sub.add_argument("--json", action="store_true", help="print the full job view")
    p_sub.set_defaults(func=_cmd_submit)

    p_ca = sub.add_parser("cache", help="inspect or prune the on-disk result cache")
    p_ca.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_ca.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used records down to the caps"
        " (with no caps given, clears the cache)",
    )
    p_ca.add_argument(
        "--max-entries", type=int, default=None, help="keep at most N records"
    )
    p_ca.add_argument(
        "--max-bytes", type=int, default=None, help="keep at most N bytes of records"
    )
    p_ca.add_argument(
        "--max-checkpoints",
        type=int,
        default=None,
        help="keep at most N checkpoint artifacts",
    )
    p_ca.add_argument(
        "--max-checkpoint-bytes",
        type=int,
        default=None,
        help="keep at most N bytes of checkpoint artifacts",
    )
    p_ca.set_defaults(func=_cmd_cache)

    p_ck = sub.add_parser("checkpoint", help="inspect checkpoint artifacts")
    p_ck.set_defaults(func=_cmd_checkpoint)
    ck_sub = p_ck.add_subparsers(dest="ck_command", required=True)
    ck_ls = ck_sub.add_parser("ls", help="list artifacts (headers only)")
    ck_info = ck_sub.add_parser("info", help="dump one artifact's header")
    ck_info.add_argument("ref", help="artifact path or content-id prefix")
    ck_rm = ck_sub.add_parser("rm", help="delete one artifact")
    ck_rm.add_argument("ref", help="artifact path or content-id prefix")
    for p in (ck_ls, ck_info, ck_rm):
        p.add_argument(
            "--dir",
            default=None,
            help="checkpoint store root (default: $REPRO_CHECKPOINT_DIR or"
            " <cache root>/checkpoints)",
        )

    return parser


def _add_workload_args(
    parser: argparse.ArgumentParser,
    *,
    required: bool = True,
    backend: str | None = None,
    n: int | None = None,
    p: int = 8,
) -> None:
    """The workload flags ``run``, ``trace``, ``analyze`` and ``submit``
    share, with per-command defaults; :func:`_workload` turns them into
    a Workload."""
    parser.add_argument(
        "--workload",
        required=required,
        default=None,
        help="workload kind (rank, cc, bfs, msf, tree, chase)",
    )
    parser.add_argument(
        "--backend",
        required=required and backend is None,
        default=backend,
        help="backend name (see `repro backends`)",
    )
    parser.add_argument("--n", type=int, default=n, help="problem size (tree: leaves)")
    parser.add_argument("--p", type=int, default=p, help="processors")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="input parameter (repeatable), e.g. --param list=ordered",
    )
    parser.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="K=V",
        help="kernel/backend option (repeatable), e.g. --opt algorithm=wyllie",
    )


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )


def _add_checkpoint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="snapshot engine runs every N steps/cycles (enables"
        " auto-resume from each job's newest artifact)",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint store root (default: $REPRO_CHECKPOINT_DIR or"
        " <cache root>/checkpoints)",
    )


def _positive(flag: str, value):
    """Reject non-positive count flags with a structured CLI error."""
    if value is not None and value < 1:
        raise ConfigurationError(f"{flag} must be >= 1, got {value}")
    return value


def _check_out_dir(flag: str, path) -> None:
    """Reject an output path in a missing directory before any work runs
    (the write comes last).  ``-`` (stdout) and None are exempt."""
    directory = os.path.dirname(path or "") or "."
    if path != "-" and not os.path.isdir(directory):
        raise ConfigurationError(f"{flag} {path}: output directory {directory} does not exist")


def _checkpoint_spec(args) -> dict | None:
    """The ``checkpoint=`` spec for run_jobs from CLI flags (or None)."""
    spec: dict = {}
    if _positive("--checkpoint-every", getattr(args, "checkpoint_every", None)) is not None:
        spec["every"] = args.checkpoint_every
    if getattr(args, "checkpoint_dir", None) is not None:
        spec["dir"] = args.checkpoint_dir
    if getattr(args, "resume", None) is not None:
        spec["resume"] = args.resume
    return spec or None


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _workload(args):
    """The Workload the shared workload flags describe (``--n`` is the
    ``n`` param, or ``leaves`` for trees; an explicit ``--param`` wins)."""
    from .backends import Workload

    params = _parse_kv(args.param, "--param")
    if args.n is not None:
        params.setdefault("leaves" if args.workload == "tree" else "n", args.n)
    return Workload(args.workload, args.p, args.seed, params, _parse_kv(args.opt, "--opt"))


def _cmd_info(args) -> int:
    from .core import CRAY_MTA2, SUN_E4500

    print(f"repro {__version__}")
    for cfg in (SUN_E4500, CRAY_MTA2):
        print(f"\n{cfg.name}:")
        for field_name, value in cfg.__dict__.items():
            print(f"  {field_name:<28} {value}")
    return 0


def _cmd_trace(args) -> int:
    from .backends.engine import create_engine
    from .obs import ContentionProfile, Tracer, write_chrome_trace, write_jsonl
    from .sim.hooks import TracerHook

    _check_out_dir("--out", args.out)
    workload = _workload(args)
    backend = create_engine(args.backend)
    tracer = Tracer(level=args.level)
    summary = backend.execute(backend.prepare(workload), hooks=(TracerHook(tracer),))
    summary.validate()  # phase cycles must partition the run exactly

    out = args.out
    if out is None:
        ext = "json" if args.fmt == "chrome" else "jsonl"
        out = f"trace-{args.workload}-{args.backend}.{ext}"
    if args.fmt == "chrome":
        metadata = {"workload": workload.canonical(), "backend": args.backend}
        write_chrome_trace(tracer.events, out, metadata=metadata)
    else:
        write_jsonl(tracer.events, out)

    print(summary.table())
    print()
    print(ContentionProfile.from_report(summary).render())
    print()
    print(f"{len(tracer.events)} event(s) -> {out}")
    if args.fmt == "chrome":
        print("open in Perfetto: https://ui.perfetto.dev (Open trace file)")
    return 0


def _parse_kv(pairs: list[str], what: str) -> dict:
    """``k=v`` strings → a dict with ints/floats/bools coerced; a value
    starting with ``{`` or ``[`` is JSON (e.g. ``engine_kwargs``)."""
    import json

    out = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"bad {what} {pair!r} (expected K=V)")
        value: object = raw
        lowered = raw.lower()
        if raw[:1] in ("{", "["):
            try:
                value = json.loads(raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad {what} {pair!r}: {exc}") from None
        elif lowered in ("true", "false"):
            value = lowered == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
        out[key] = value
    return out


def _make_cache(args):
    from .core.cache import SweepCache

    if args.no_cache:
        return False
    return SweepCache(args.cache_dir) if args.cache_dir else SweepCache()


def _cmd_serve(args) -> int:
    from .service import serve

    cache: bool | str = True
    if args.no_cache:
        cache = False
    elif args.cache_dir:
        cache = args.cache_dir
    serve(
        args.host,
        args.port,
        log=lambda msg: print(msg, file=sys.stderr, flush=True),
        queue_limit=args.queue_limit,
        dispatchers=args.dispatchers,
        job_workers=args.job_workers,
        default_timeout_s=args.timeout,
        cache=cache,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    return 0


def _submit_body(args) -> dict:
    if (args.spec is None) == (args.workload is None):
        raise ConfigurationError(
            "submit needs exactly one of --spec or --workload/--backend"
        )
    body: dict = {}
    if args.spec is not None:
        body["spec"] = args.spec
    else:
        if args.backend is None:
            raise ConfigurationError("--workload also needs --backend")
        body["workload"] = _workload(args).canonical()
        body["backend"] = args.backend
    if args.priority:
        body["priority"] = args.priority
    if args.timeout is not None:
        body["timeout_s"] = args.timeout
    if args.label:
        body["label"] = args.label
    if _positive("--checkpoint-every", args.checkpoint_every) is not None:
        body["checkpoint"] = {"every": args.checkpoint_every}
    if args.resume_from is not None:
        body["resume_from"] = args.resume_from
    return body


def _cmd_submit(args) -> int:
    import json

    from .service import DONE, ServiceClient

    with ServiceClient(args.host, args.port) as client:
        view = client.submit(_submit_body(args))
        if args.no_wait:
            if args.json:
                print(json.dumps(view, indent=2, sort_keys=True))
            else:
                print(f"{view['id']} {view['state']}")
            return 0
        view = client.wait(view["id"], timeout=args.wait_timeout)
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
        return 0 if view["state"] == DONE else 2
    if view["state"] == DONE:
        result = view["result"]
        print(
            f"{view['id']} done in {view['elapsed_s']:.3f}s: {result['jobs']} job(s)"
            f" ({result['jobs_cached']} cached, {result['jobs_fresh']} fresh)"
        )
        return 0
    error = view.get("error", {})
    print(
        f"{view['id']} {view['state']}:"
        f" {error.get('code', '?')}: {error.get('message', '')}",
        file=sys.stderr,
    )
    return 2


def _cmd_cache(args) -> int:
    from .core.cache import SweepCache
    from .sim.checkpoint import CheckpointStore, default_checkpoint_root

    cache = SweepCache(args.cache_dir) if args.cache_dir else SweepCache()
    store = CheckpointStore(default_checkpoint_root(cache.root))
    rows = cache.entries()
    total = sum(size for _, _, size in rows)
    print(f"cache at {cache.root}: {len(rows)} record(s), {total} bytes")
    ckpts = store.files()
    if ckpts:
        print(
            f"checkpoints at {store.root}: {len(ckpts)}"
            f" artifact(s), {sum(s for _, _, s in ckpts)} bytes"
        )
    ck_caps = (args.max_checkpoints, args.max_checkpoint_bytes)
    if args.prune:
        max_entries, max_bytes = args.max_entries, args.max_bytes
        if max_entries is None and max_bytes is None and ck_caps == (None, None):
            max_entries = 0  # --prune with no caps clears the cache
        evicted, freed = cache.prune(max_entries=max_entries, max_bytes=max_bytes)
        print(f"pruned {evicted} record(s), freed {freed} bytes")
        if ck_caps != (None, None):
            evicted, freed = store.prune(args.max_checkpoints, args.max_checkpoint_bytes)
            print(f"pruned {evicted} checkpoint artifact(s), freed {freed} bytes")
    elif args.max_entries is not None or args.max_bytes is not None or ck_caps != (
        None,
        None,
    ):
        print("(caps given without --prune: nothing evicted)")
    return 0


def _cmd_checkpoint(args) -> int:
    import json

    from .sim.checkpoint import CheckpointStore, read_header

    store = CheckpointStore(args.dir)
    if args.ck_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"no checkpoint artifacts under {store.root}")
            return 0
        print(
            f"{'id':<16}  {'machine':<8}  {'tier':<11}  {'run':<18}"
            f"  {'progress':>12}  {'job':<16}  size"
        )
        for path, header in entries:
            prog = header.get("progress") or {}
            at = prog.get("cycle", prog.get("steps", 0))
            job = ((header.get("job") or {}).get("key") or "adhoc")[:16]
            print(
                f"{path.stem[:16]:<16}  {header.get('machine', '?'):<8}"
                f"  {header.get('tier', '?'):<11}"
                f"  {str(header.get('run_name', '?'))[:18]:<18}"
                f"  {at:>12}  {job:<16}  {path.stat().st_size}"
            )
        return 0
    if args.ck_command == "info":
        path = store.resolve(args.ref)
        header = dict(read_header(path), cid=path.stem, path=str(path))
        print(json.dumps(header, indent=2, sort_keys=True))
        return 0
    path = store.rm(args.ref)  # "rm"
    print(f"removed {path}")
    return 0


def _cmd_backends(args) -> int:
    from .backends import describe

    rows = describe()
    if args.json:
        import json

        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max(len(r["name"]) for r in rows)
    kw = max(len(",".join(r["kinds"])) for r in rows)
    mw = max(len(r["machine"] or "-") for r in rows)
    for r in rows:
        kinds = ",".join(r["kinds"])
        machine = r["machine"] or "-"
        hooks = f"{len(r['hooks'])} hooks" if r["hooks"] else "-"
        ckpt = "ckpt" if r.get("checkpoint") else "-"
        xval = "xval" if r.get("xval") else "-"
        print(
            f"{r['name']:<{width}}  {r['level']:<6}  {kinds:<{kw}}"
            f"  {machine:<{mw}}  {hooks:<8}  {ckpt:<4}"
            f"  {xval:<4}  {r['description']}"
        )
    return 0


def _cmd_xval(args) -> int:
    import json

    from .backends import Workload
    from .core.runner import Job, run_jobs
    from .xval import DivergenceReport

    _check_out_dir("--jsonl", args.jsonl)
    options = {"machine": args.machine, "max_iter": args.max_iter}
    if args.variant is not None:
        options["variant"] = args.variant
    if args.penalty is not None:
        options["penalty"] = args.penalty
    m = args.m if args.m is not None else 2 * args.n
    workload = Workload(
        args.workload,
        args.p,
        args.seed,
        {"graph": "random", "n": args.n, "m": m},
        options,
    )
    job = Job(workload, "cost-xval")
    [result] = run_jobs([job], workers=1, cache=_make_cache(args))
    report = DivergenceReport.from_dict(result.detail["xval"])
    if args.jsonl is not None:
        _write_text(args.jsonl, report.jsonl())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.jsonl != "-":
        print(report.table(args.top))
    return 0


def _cmd_run(args) -> int:
    from .core.runner import Job, run_jobs

    workload = _workload(args)
    job = Job(workload, args.backend)
    [result] = run_jobs(
        [job], workers=1, cache=_make_cache(args), checkpoint=_checkpoint_spec(args)
    )
    if args.json:
        print(result.jsonl())
        return 0
    s = result.summary
    tag = "cached" if result.cached else "fresh"
    print(f"{args.workload} on {args.backend} ({tag})")
    print(f"  p={workload.p}  seed={workload.seed}  params={dict(workload.params)}")
    print(
        f"  cycles {s['cycles']:.0f}  seconds {result.seconds:.6e}"
        f"  utilization {s['utilization']:.1%}"
    )
    detail = {k: v for k, v in result.detail.items() if k != "stats"}
    if detail:
        print(f"  {detail}")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze_suite, analyze_workload, dump_jsonl

    _check_out_dir("--jsonl", args.jsonl)
    cap = args.max_findings
    if cap < 0:
        raise ConfigurationError(f"--max-findings must be >= 0, got {cap}")
    if args.all_programs:
        if args.workload is not None:
            raise ConfigurationError("--all and --workload are mutually exclusive")
        named = analyze_suite(strict=args.strict)
    else:
        if args.workload is None:
            raise ConfigurationError("analyze needs --workload or --all")
        report = analyze_workload(_workload(args), args.backend, strict=args.strict)
        named = [(f"{args.workload}/{args.backend}", report)]

    # the cap limits what is printed or written; the status line and
    # the exit code count every finding
    if args.jsonl is not None:
        _write_text(args.jsonl, dump_jsonl(f for _, r in named for f in r.findings[:cap]))
    errors = 0
    for name, report in named:
        s = report.stats
        fa = s.get("fa", {})
        status = "clean" if report.ok() else f"{len(report.errors)} error(s)"
        if report.warnings:
            status += f", {len(report.warnings)} warning(s)"
        suppressed = s.get("suppressed_races", 0)
        note = f", {suppressed} annotated race(s) suppressed" if suppressed else ""
        if len(report.findings) > cap:
            note += f", {len(report.findings) - cap} over --max-findings not shown"
        print(
            f"{name}: {status}{note}  "
            f"[{s.get('ops', 0)} ops, {s.get('threads', 0)} threads, "
            f"{len(s.get('runs', []))} run(s), FA top-share {fa.get('top_share', 0.0):.0%}]"
        )
        if args.jsonl != "-":
            for f in report.findings[:cap]:
                print(f"  {f.render()}")
        errors += len(report.errors)
    return 1 if errors else 0


def _cmd_lint(args) -> int:
    from .analysis import dump_jsonl
    from .analysis.static import (
        STATE_BASELINE_PATH,
        collect_state_baseline,
        lint_repo,
        repo_root,
    )

    if args.write_state_baseline:
        _check_out_dir("--state-baseline", args.state_baseline)
        path = args.state_baseline or os.path.join(repo_root(), STATE_BASELINE_PATH)
        _write_text(path, collect_state_baseline(args.paths))
        print(f"wrote state-contract baseline: {path}")
        return 0

    _check_out_dir("--jsonl", args.jsonl)
    report = lint_repo(
        args.paths,
        strict=args.strict,
        checks=args.rule or None,
        state_baseline_path=args.state_baseline,
    )
    if args.jsonl is not None:
        _write_text(args.jsonl, dump_jsonl(report.findings))

    s = report.stats
    status = "clean" if report.ok() else f"{len(report.errors)} error(s)"
    if report.warnings:
        status += f", {len(report.warnings)} warning(s)"
    suppressed = s.get("suppressed_findings", 0)
    note = f", {suppressed} annotated finding(s) suppressed" if suppressed else ""
    print(f"lint: {status}{note}  [{s.get('files', 0)} file(s)]")
    if args.jsonl != "-":
        for f in report.findings:
            print(f"  {f.render()}")
    return 1 if report.errors else 0


def _cmd_sweep(args) -> int:
    from .core.runner import run_jobs, write_jsonl
    from .workloads import jobs_for

    jobs = jobs_for(args.spec)
    _positive("--workers", args.workers)
    _check_out_dir("--jsonl", args.jsonl)
    cache = _make_cache(args)
    results = run_jobs(
        jobs, workers=args.workers, cache=cache, checkpoint=_checkpoint_spec(args)
    )

    columns: list[str] = []
    for job in jobs:
        for key in job.tags:
            if key not in columns:
                columns.append(key)
    header = "  ".join(f"{c:>10}" for c in columns)
    print(f"sweep {args.spec}: {len(results)} job(s)")
    print(f"{header}  {'seconds':>14}  {'utilization':>11}")
    for r in results:
        cells = "  ".join(f"{str(r.job.tags.get(c, '-')):>10}" for c in columns)
        print(f"{cells}  {r.seconds:>14.6e}  {r.utilization:>11.4f}")

    if args.jsonl is not None:
        _write_text(args.jsonl, write_jsonl(results))
    if cache is not False and cache is not None:
        print(cache.stats_line(), file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout reader went away (e.g. `repro checkpoint ls | head`);
        # suppress the shutdown flush's second BrokenPipeError too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
