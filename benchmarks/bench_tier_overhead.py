#!/usr/bin/env python
"""What ``tier="auto"`` costs over ``tier="interpreted"`` on paper workloads.

``auto`` may fast-forward LD windows whenever the machine allows it, but
no paper program emits ``run_block``, so no window can fire on one, and
``auto`` must run at interpreted speed.  Two slices gate that:

``table1_rank``
    MTA list ranking of a random list at p = 4 with the paper's stream
    settings (100 streams per processor, ~10 nodes per walk) on
    ``mta-engine``.  The kernel consults the window planner only while
    every live stream is inside an op block (``docs/SIMULATION.md``,
    "Selection rules"), so the planner is never called here.
``fig2_cc``
    SV connected components on the SMP engine (``smp-engine``) over the
    Fig. 2 random graph of the ``cc_xval`` workload (n = 1024,
    m = 4096, p = 4).  Both tiers run one event loop; a tier fork
    returning to it would show here.

Each slice's ratio is auto / interpreted wall time for the pair at the
25th percentile of per-pair ratios over nine interleaved pairs, the
estimator of ``bench_checkpoint.py``.  The tier that runs first
alternates from pair to pair, so drifts in host load hit both sides
equally.  Both tiers must produce identical run summaries, or the
comparison is meaningless.

Usage::

    PYTHONPATH=src python benchmarks/bench_tier_overhead.py [--max-ratio 1.05]

Writes ``benchmarks/results/BENCH_tier_overhead.json``; a non-None
``--max-ratio`` makes the run fail when any slice's ratio exceeds it
(the CI fast-tier job passes ``--max-ratio 1.05``).
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
from repro.workloads.specs import FIG2_SPEC, TABLE1_SPEC  # noqa: E402

try:  # imported as part of the ``benchmarks`` package (pytest)
    from .bench_checkpoint import lower_quartile_pair
except ImportError:  # run as a script: this directory is on sys.path
    from bench_checkpoint import lower_quartile_pair

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

P = 4
TIERS = ("interpreted", "auto")


def _table1_rank(tier: str, small: bool) -> Workload:
    return Workload(
        kind="rank",
        p=P,
        seed=TABLE1_SPEC.seed,
        params={"n": P * (100 if small else 2000), "list": "random"},
        options={
            "streams_per_proc": TABLE1_SPEC.streams_per_proc,
            "nodes_per_walk": TABLE1_SPEC.nodes_per_walk,
            "tier": tier,
        },
    )


def _fig2_cc(tier: str, small: bool) -> Workload:
    n = 128 if small else 1024
    return Workload(
        kind="cc",
        p=P,
        seed=FIG2_SPEC.seed,
        params={"graph": "random", "n": n, "m": 4 * n},
        options={"tier": tier},
    )


#: slice name -> (backend, workload builder taking the tier and ``small``)
SLICES = {
    "table1_rank": ("mta-engine", _table1_rank),
    "fig2_cc": ("smp-engine", _fig2_cc),
}


def run_slice(name: str, repeats: int = 9, small: bool = False) -> dict:
    """Lower-quartile auto / interpreted wall-time ratio over interleaved pairs."""
    backend_name, build = SLICES[name]
    backend = create(backend_name)

    def timed(tier: str) -> dict:
        t0 = time.perf_counter()
        summary = backend.run(build(tier, small))
        return {"seconds": time.perf_counter() - t0, "summary": summary}

    timed("auto")  # warm the input-generation and import paths once
    pairs = []
    for i in range(repeats):
        order = TIERS if i % 2 == 0 else TIERS[::-1]
        runs = {tier: timed(tier) for tier in order}
        pairs.append((runs["interpreted"], runs["auto"]))
    reference = pairs[0][0]["summary"]
    if any(run["summary"] != reference for pair in pairs for run in pair):
        raise RuntimeError(f"{name}: the two tiers simulated different runs")
    interp, auto = lower_quartile_pair(pairs)
    return {
        "backend": backend_name,
        "params": build("auto", small).params,
        "p": P,
        "interpreted_seconds": interp["seconds"],
        "auto_seconds": auto["seconds"],
        "ratio": auto["seconds"] / interp["seconds"],
        "cycles": reference.cycles,
        "issued": reference.issued,
    }


def run_bench(repeats: int = 9, small: bool = False) -> dict:
    """Every slice's ratio (``small``: the smoke test's sizes)."""
    return {
        "repeats": repeats,
        "slices": {name: run_slice(name, repeats, small) for name in SLICES},
    }


def test_tier_overhead_smoke(benchmark):
    """Both tiers simulate the identical run on every slice.  The ratio
    gate runs in CI (``--max-ratio 1.05``), where it takes the lower
    quartile of nine pairs; asserting a wall-clock ratio in tier 1
    would flake."""
    result = benchmark.pedantic(
        lambda: run_bench(repeats=1, small=True), rounds=1, iterations=1
    )
    assert set(result["slices"]) == set(SLICES)
    for row in result["slices"].values():
        assert row["cycles"] > 0
        assert row["interpreted_seconds"] > 0 and row["auto_seconds"] > 0


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
    failed = False
    for name, row in result["slices"].items():
        print(
            f"auto / interpreted on {name} ({row['backend']}, p={P}, "
            f"{', '.join(f'{k}={v}' for k, v in row['params'].items())}): "
            f"{row['ratio']:.3f} ({row['auto_seconds']:.3f}s vs "
            f"{row['interpreted_seconds']:.3f}s, lower quartile of "
            f"{result['repeats']} pairs)"
        )
        if args.max_ratio is not None and row["ratio"] > args.max_ratio:
            print(
                f"FAIL: {name}: auto / interpreted {row['ratio']:.4f} exceeds "
                f"--max-ratio {args.max_ratio}",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
