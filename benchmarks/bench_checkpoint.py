#!/usr/bin/env python
"""Checkpointing overhead on the ranking workload (host wall time).

Snapshots must be cheap enough to leave on for long runs: the ISSUE
acceptance is **< 5 % overhead at ``checkpoint_every=100_000``** on the
MTA list-ranking workload.  The overhead has two components, measured
separately so a regression names its culprit:

``record``
    A recording kernel (``record=True``) appends every generator resume
    to the replay log — pure per-op bookkeeping, paid even between
    snapshot boundaries.  This dominates at wide spacings.
``snapshot``
    Serializing kernel + machine state and writing the
    content-addressed artifact at each boundary.  At ``every=100_000``
    this fires a handful of times per run and is amortized to noise.

Both runs flow through the real backend path (the ``checkpoint``
workload option on ``mta-engine``), so the measured overhead includes
session bookkeeping, artifact packing, and the store write — everything
a production ``repro run --checkpoint-every 100000`` pays.  The
reported overhead is the 25th-percentile per-pair ratio over
``--repeats`` interleaved (plain, checkpointed) pairs to damp scheduler
noise; the baseline and the checkpointed run execute the identical
workload (same seed, same machine), so the ratio isolates the
checkpoint machinery.

Usage::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py \
        [--n N] [--every N] [--repeats K] [--max-overhead 0.05]

Writes ``benchmarks/results/BENCH_checkpoint.json``; a non-None
``--max-overhead`` makes the run fail when exceeded (the CI checkpoint
job passes ``--max-overhead 0.05``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.backends import create  # noqa: E402
from repro.backends.base import Workload  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

DEFAULT_N = 20_000
DEFAULT_EVERY = 100_000


def _workload(n: int, **options) -> Workload:
    return Workload(
        kind="rank",
        p=4,
        seed=11,
        params={"n": n, "list": "random"},
        options={"streams_per_proc": 16, **options},
    )


def lower_quartile_pair(pairs: list) -> tuple:
    """The ``(base, other)`` pair at the 25th percentile of the per-pair
    ``other / base`` wall-time ratio (each side a dict with ``seconds``)."""
    ranked = sorted(pairs, key=lambda bc: bc[1]["seconds"] / bc[0]["seconds"])
    return ranked[len(ranked) // 4]


def run_bench(
    n: int = DEFAULT_N, every: int = DEFAULT_EVERY, repeats: int = 9
) -> dict:
    """Lower-quartile pair wall-time ratio, plain vs checkpointed.

    Measurements are *interleaved* (plain, checkpointed, plain, ...) so
    slow drifts in host load hit both sides equally.  The overhead is
    the **25th-percentile per-pair ratio** across the interleaved
    pairs: load spikes perturb individual pairs in either direction
    (ratios from -10 % to +30 % are routine on a shared host), so the
    estimate only requires the quietest quarter of the pairs to be
    clean.  A genuine regression in the checkpoint machinery inflates
    *every* pair, so the low quantile still catches it; what it
    deliberately ignores is transient host contention.
    """
    backend = create("mta-engine")
    ckdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-ckpt-"))
    try:

        def plain():
            t0 = time.perf_counter()
            summary = backend.run(_workload(n))
            return {"seconds": time.perf_counter() - t0, "cycles": summary.cycles}

        def checkpointed():
            # fresh=True: every repeat runs the full workload (no
            # auto-resume of the previous repeat's artifacts)
            wl = _workload(
                n, checkpoint={"every": every, "dir": str(ckdir), "fresh": True}
            )
            t0 = time.perf_counter()
            summary = backend.run(wl)
            return {"seconds": time.perf_counter() - t0, "cycles": summary.cycles}

        plain()  # warm the input-generation and import paths once
        pairs = [(plain(), checkpointed()) for _ in range(repeats)]
        artifacts = list(ckdir.glob("*/*.ckpt"))
        artifact_bytes = sum(p.stat().st_size for p in artifacts)
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)
    # identical simulated history, or the comparison is meaningless
    for b, c in pairs:
        assert c["cycles"] == b["cycles"], (c["cycles"], b["cycles"])
    base, ckpt = lower_quartile_pair(pairs)
    overhead = ckpt["seconds"] / base["seconds"] - 1.0
    return {
        "n": n,
        "checkpoint_every": every,
        "repeats": repeats,
        "baseline_seconds": base["seconds"],
        "checkpointed_seconds": ckpt["seconds"],
        "overhead": overhead,
        "artifacts_written": len(artifacts),
        "artifact_bytes": artifact_bytes,
        "cycles": base["cycles"],
    }


def test_checkpoint_overhead_smoke(benchmark):
    """Checkpointed and plain runs simulate the identical history and
    the machinery's cost is finite.  The 5 % floor check runs in CI
    (``--max-overhead 0.05``) where timings are best-of-repeats on an
    idle runner; asserting a wall-clock ratio in tier 1 would flake."""
    # every run at n=4_000 is shorter than 50_000 cycles, so a spacing
    # that wide never snapshots; 5_000 writes about ten artifacts
    result = benchmark.pedantic(
        lambda: run_bench(n=4_000, every=5_000, repeats=1), rounds=1, iterations=1
    )
    assert result["artifacts_written"] >= 1
    assert result["baseline_seconds"] > 0
    assert result["checkpointed_seconds"] > 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=DEFAULT_N, help="list length")
    ap.add_argument(
        "--every", type=int, default=DEFAULT_EVERY, help="snapshot spacing"
    )
    ap.add_argument("--repeats", type=int, default=9, help="interleaved measurement pairs")
    ap.add_argument(
        "--json", type=pathlib.Path, default=RESULTS / "BENCH_checkpoint.json"
    )
    ap.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        help="fail when (checkpointed/baseline - 1) exceeds this fraction",
    )
    args = ap.parse_args(argv)

    result = run_bench(n=args.n, every=args.every, repeats=args.repeats)
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(
        f"checkpoint overhead at every={args.every}: "
        f"{result['overhead'] * 100:.2f}% "
        f"({result['checkpointed_seconds']:.3f}s vs "
        f"{result['baseline_seconds']:.3f}s, "
        f"{result['artifacts_written']} artifact(s), "
        f"{result['artifact_bytes']} bytes)"
    )
    if args.max_overhead is not None and result["overhead"] > args.max_overhead:
        print(
            f"FAIL: overhead {result['overhead']:.4f} exceeds "
            f"--max-overhead {args.max_overhead}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
