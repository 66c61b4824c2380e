#!/usr/bin/env python
"""What ``tier="auto"`` costs over ``tier="interpreted"`` on a paper workload.

``auto`` selects the vector tier whenever the machine allows it, but no
paper program emits ``run_block``, so no LD window can fire on one.  The
kernel consults the window planner only while every live stream is
inside an op block (``docs/SIMULATION.md``, "Selection rules"), so on
these programs ``auto`` must run at interpreted speed.  This benchmark
gates that on a Table 1 slice: MTA list ranking of a random list at
p = 4 with the paper's stream settings (100 streams per processor,
~10 nodes per walk), run on both tiers through the ``mta-engine``
backend.

The reported ratio is auto / interpreted wall time for the pair at the
25th percentile of per-pair ratios over nine interleaved pairs, the
estimator of ``bench_checkpoint.py``.  The tier that runs first
alternates from pair to pair, so drifts in host load hit both sides
equally.  Both tiers must produce identical run summaries, or the
comparison is meaningless.

Usage::

    PYTHONPATH=src python benchmarks/bench_tier_overhead.py [--max-ratio 1.05]

Writes ``benchmarks/results/BENCH_tier_overhead.json``; a non-None
``--max-ratio`` makes the run fail when the ratio exceeds it (the CI
fast-tier job passes ``--max-ratio 1.05``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.backends import create  # noqa: E402
from repro.backends.base import Workload  # noqa: E402
from repro.workloads.specs import TABLE1_SPEC  # noqa: E402

try:  # imported as part of the ``benchmarks`` package (pytest)
    from .bench_checkpoint import lower_quartile_pair
except ImportError:  # run as a script: this directory is on sys.path
    from bench_checkpoint import lower_quartile_pair

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

P = 4
DEFAULT_NODES_PER_PROC = 2000
TIERS = ("interpreted", "auto")


def _workload(n: int, tier: str) -> Workload:
    return Workload(
        kind="rank",
        p=P,
        seed=TABLE1_SPEC.seed,
        params={"n": n, "list": "random"},
        options={
            "streams_per_proc": TABLE1_SPEC.streams_per_proc,
            "nodes_per_walk": TABLE1_SPEC.nodes_per_walk,
            "tier": tier,
        },
    )


def run_bench(nodes_per_proc: int = DEFAULT_NODES_PER_PROC, repeats: int = 9) -> dict:
    """Lower-quartile auto / interpreted wall-time ratio over interleaved pairs."""
    backend = create("mta-engine")
    n = nodes_per_proc * P

    def timed(tier: str) -> dict:
        t0 = time.perf_counter()
        summary = backend.run(_workload(n, tier))
        return {"seconds": time.perf_counter() - t0, "summary": summary}

    timed("auto")  # warm the input-generation and import paths once
    pairs = []
    for i in range(repeats):
        order = TIERS if i % 2 == 0 else TIERS[::-1]
        runs = {tier: timed(tier) for tier in order}
        pairs.append((runs["interpreted"], runs["auto"]))
    reference = pairs[0][0]["summary"]
    if any(run["summary"] != reference for pair in pairs for run in pair):
        raise RuntimeError("the two tiers simulated different runs")
    interp, auto = lower_quartile_pair(pairs)
    return {
        "n": n,
        "p": P,
        "repeats": repeats,
        "interpreted_seconds": interp["seconds"],
        "auto_seconds": auto["seconds"],
        "ratio": auto["seconds"] / interp["seconds"],
        "cycles": reference.cycles,
        "issued": reference.issued,
    }


def test_tier_overhead_smoke(benchmark):
    """Both tiers simulate the identical run.  The ratio gate runs in CI
    (``--max-ratio 1.05``), where it takes the lower quartile of nine
    pairs; asserting a wall-clock ratio in tier 1 would flake."""
    result = benchmark.pedantic(
        lambda: run_bench(nodes_per_proc=100, repeats=1), rounds=1, iterations=1
    )
    assert result["cycles"] > 0
    assert result["interpreted_seconds"] > 0 and result["auto_seconds"] > 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--json", type=pathlib.Path, default=RESULTS / "BENCH_tier_overhead.json"
    )
    ap.add_argument(
        "--max-ratio",
        type=float,
        default=None,
        help="fail when auto / interpreted wall time exceeds this",
    )
    args = ap.parse_args(argv)

    result = run_bench()
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(
        f"auto / interpreted on MTA rank n={result['n']} p={P}: "
        f"{result['ratio']:.3f} ({result['auto_seconds']:.3f}s vs "
        f"{result['interpreted_seconds']:.3f}s, lower quartile of "
        f"{result['repeats']} pairs)"
    )
    if args.max_ratio is not None and result["ratio"] > args.max_ratio:
        print(
            f"FAIL: auto / interpreted {result['ratio']:.4f} exceeds "
            f"--max-ratio {args.max_ratio}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
