"""One workload in one fresh process: set up, measure, check, report.

``run.py`` starts this file as a child, so the peak memory it reads
(``VmHWM``) is the workload's own.  The result is written as JSON to
``--out``.  With ``--setup-only`` the child stops once it is ready for
its first timed unit and reports only how long that took, measured from
the moment the parent spawned it (``PERFBENCH_SPAWN``, a
``time.monotonic()`` reading; the clock is system-wide on Linux).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any

import numpy as np

from hostinfo import calibration_s, host_speed, peak_rss_mb
from metrics import hd_quantile, median_metrics, per_layer
from serveload import ServeClosedLoop
from tracing import LAYER_PREFIXES, SimObserver, Tracer, layer_busy, summarize
from workloads import (
    BatchWorkload, CampaignFaults, PaperFigs, PassResult, ScaleCompiled, sim_counts,
)

WORKLOADS = {w.name: w for w in (PaperFigs, CampaignFaults, ScaleCompiled, ServeClosedLoop)}


def traced_layers(res: PassResult, spans: list[list[Any]], overhead_pct: float) -> dict[str, float]:
    fp = res.fingerprint
    counts = {
        **sim_counts(fp),
        "region_computes": fp["region_computes"],
        "crossover_computes": fp["crossover_computes"],
        "overhead_pct": overhead_pct,
        **res.counters,
    }
    return per_layer(summarize(spans), layer_busy(spans, LAYER_PREFIXES), counts)


def run(args: argparse.Namespace, spawn: float) -> dict[str, Any]:
    observer = SimObserver()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, observer)
    workload.setup()
    observer.install()
    setup_s = time.monotonic() - spawn
    setup_speed = host_speed()
    try:
        if args.setup_only:
            return {"setup_s": setup_s, "setup_speed": setup_speed}
        out = measure(args, workload, observer)
    finally:
        workload.close()
    out["setup_s"] = setup_s
    out["setup_speed"] = setup_speed
    return out


def measure(args: argparse.Namespace, workload: BatchWorkload, observer: SimObserver) -> dict[str, Any]:
    """Run passes of *workload*'s job for ``--seconds``; medians over passes."""
    calibration = [calibration_s()]
    plain: list[PassResult] = []
    traced: list[tuple[PassResult, list[list[Any]]]] = []
    attempted = failed = 0
    notes: list[str] = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        tracer = Tracer() if args.trace and k % 2 == 1 else None
        speed = host_speed()
        gc.collect()  # start every pass with the same collector state
        if tracer is not None:
            tracer.install()
        try:
            res = workload.run_pass(k)
        finally:
            if tracer is not None:
                tracer.uninstall()
        res.speed = (speed + host_speed()) / 2
        attempted += res.attempted
        failed += res.failed
        notes += res.notes
        if k == 0:
            fingerprint = res.fingerprint
        else:
            attempted += 1  # the pass-to-pass determinism check
            if res.fingerprint != fingerprint:
                failed += 1
                notes.append(f"pass {k} fingerprint {res.fingerprint} != {fingerprint}")
        if tracer is None:
            plain.append(res)
        else:
            traced.append((res, tracer.spans))
        k += 1
        # stop when another pass of the same length would overrun the run
        done = plain and (traced or not args.trace)
        if done and time.perf_counter() + res.wall_s + 0.3 > deadline:
            break
    calibration.append(calibration_s())

    out: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "fingerprint": fingerprint,
        "info": {
            "unit": workload.unit,
            "passes": len(plain),
            "pass_wall_s": [round(r.wall_s, 4) for r in plain],
            "pass_host_speed": [round(r.speed, 4) for r in plain],
            "calibration_s": calibration,
        },
    }
    if args.trace:
        wall = float(np.median([r.ref_wall_s for r in plain]))
        traced_wall = float(np.median([r.ref_wall_s for r, _ in traced]))
        overhead = (traced_wall - wall) / wall * 100.0
        out["layers"] = median_metrics(
            [traced_layers(r, spans, overhead) for r, spans in traced]
        )
        out["spans"] = [s for _, spans in traced for s in spans]
        out["info"]["traced_passes"] = len(traced)
        return out

    # CPU-bound: every time is reported at the reference host speed, and
    # every figure is a median over passes of a per-pass statistic
    units = [[u * r.speed for u in r.unit_s] for r in plain]
    out["metrics"] = {
        "wall_s": float(np.median([r.ref_wall_s for r in plain])),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": float(np.median([hd_quantile(u, 0.50) for u in units]) * 1e3),
        "p95_ms": float(np.median([hd_quantile(u, 0.95) for u in units]) * 1e3),
    }
    out["info"]["units"] = sum(map(len, units))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spawn = float(os.environ["PERFBENCH_SPAWN"])

    result = run(args, spawn)
    if not args.setup_only:
        from repro.core.cache import cache_stats

        result["info"]["cache_stats"] = cache_stats()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
