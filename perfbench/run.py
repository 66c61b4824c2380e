#!/usr/bin/env python3
"""Host-time benchmark of the paper workloads, end to end and by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1_rank --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate profiled run.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, SRC, Tally
from layers import SELF_LAYERS

WORKLOADS = ("table1_rank", "cc_xval", "service_mix")

#: Workload seed reserved for confirming a claimed gain; never tune on it.
HELD_OUT_SEED = 20050615

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "sim_ops_per_s": "1/s",
    "warm_p50_ms": "ms",
    "cold_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "isa.calls": "count",
    "memory.addr_calls": "count",
    "kernel.resumes": "count",
    "kernel.ns_per_op": "ns",
    "inputs.calls": "count",
    "fastpath.attempts": "count",
    "fastpath.windows": "count",
    "fastpath.auto_over_interpreted": "ratio",
    "sweep_cache.get_ms": "ms",
    "sweep_cache.put_ms": "ms",
    "sweep_cache.hits": "count",
    "sweep_cache.misses": "count",
    "sweep_cache.stores": "count",
    "sweep_cache.bytes_written": "B",
    "http.submit_ms": "ms",
    "http.poll_ms": "ms",
    "http.polls_per_job": "count",
    "service.latency_p50_ms": "ms",
    "service.latency_p95_ms": "ms",
    "service.coalesce_hits": "count",
    "service.executions": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "sim.cycles": "count",
    "sim.issued": "count",
    "sim.utilization": "ratio",
    "xval.smp_max_total_rel_error": "ratio",
    "xval.mta_total_rel_error": "ratio",
    "xval.branch_sign_agreement": "count",
    "error_rate": "ratio",
}

#: A traced run whose named layers cover less self time than this is flagged.
MIN_COVERAGE = 0.9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run(args, work, tally) -> dict:
    if args.workload == "service_mix":
        from service_mix import ServiceMix

        bench = ServiceMix(args.seed, work, tally)
    else:
        from engine_workloads import EngineWorkload

        bench = EngineWorkload(args.workload, args.seed, work, tally)
    if not args.trace:
        return bench.measure(args.seconds)
    traced = bench.trace(args.seconds)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(traced["metrics"])
    self_s = traced["self_s"]
    total = sum(self_s.values())
    metrics["trace.coverage"] = 1.0 - self_s["other"] / total if total else 0.0
    metrics["error_rate"] = tally.failed / max(tally.attempted, 1)
    if traced["unmapped"]:
        print(
            "perfbench: repro modules missing from the layer map (counted as"
            f" other): {', '.join(sorted(traced['unmapped']))}",
            file=sys.stderr,
        )
    if metrics["trace.coverage"] < MIN_COVERAGE:
        print(
            f"perfbench: WARNING: named layers cover only"
            f" {metrics['trace.coverage']:.1%} of traced self time",
            file=sys.stderr,
        )
    shares = sorted(
        ((v / total if total else 0.0, k) for k, v in self_s.items()), reverse=True
    )
    print("self time by layer: " + ", ".join(f"{k} {s:.1%}" for s, k in shares if s))
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        values = _run(args, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
