"""The benchmark's metric catalogue and the per-layer metric formulas.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions; ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: ``(name, unit, better, bound)`` — measured with tracing off.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("p50_ms", "ms", "lower", 0.25),
    ("p95_ms", "ms", "lower", 0.25),
)

#: ``(name, unit, better)`` — measured in the traced run.  Layers a
#: workload does not exercise report 0; every layer is exercised by at
#: least one workload.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("engine.busy_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.ns_per_msg", "ns", "lower"),
    ("engine.runs", "count", "lower"),
    ("engine.messages", "count", "lower"),
    ("engine.words", "count", "lower"),
    ("algorithms.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("compile.probe_s", "s", "lower"),
    ("compile.replay_s", "s", "lower"),
    ("compile.compiled", "count", "higher"),
    ("compile.fallbacks", "count", "lower"),
    ("charging.calls", "count", "lower"),
    ("charging.s", "s", "lower"),
    ("charging.ns_per_msg", "ns", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.retransmits", "count", "lower"),
    ("campaign.s_per_scenario", "s", "lower"),
    ("campaign.oracle_s", "s", "lower"),
    ("campaign.db_append_ms", "ms", "lower"),
    ("campaign.bytes_written", "bytes", "lower"),
    ("campaign.sqlite_rebuild_s", "s", "lower"),
    ("prediction.calls", "count", "lower"),
    ("prediction.points", "count", "lower"),
    ("prediction.ns_per_point", "ns", "lower"),
    ("prediction.mean_points_per_call", "count", "higher"),
    ("prediction.scan_ns_per_point", "ns", "lower"),
    ("prediction.refine_s", "s", "lower"),
    ("regions.computes", "count", "lower"),
    ("crossover.computes", "count", "lower"),
    ("regions.s", "s", "lower"),
    ("cache.mem_hits", "count", "higher"),
    ("cache.mem_misses", "count", "lower"),
    ("cache.disk_hits", "count", "higher"),
    ("cache.disk_misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("serve.protocol_ns_per_request", "ns", "lower"),
    ("serve.app_self_ms", "ms", "lower"),
    ("serve.errors", "count", "lower"),
    ("batcher.batches", "count", "lower"),
    ("batcher.mean_batch", "count", "higher"),
    ("batcher.timer_flush_share", "ratio", "lower"),
    ("batcher.queue_wait_ms", "ms", "lower"),
    ("tier.hit_ratio", "ratio", "higher"),
    ("tier.evictions", "count", "lower"),
    ("jobs.queue_wait_ms", "ms", "lower"),
    ("jobs.run_ms", "ms", "lower"),
    ("serve.rejected_503", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _prefix(summary: dict[str, dict[str, float]], prefix: str, key: str) -> float:
    return sum(v[key] for name, v in summary.items() if name.startswith(prefix))


def _get(summary: dict[str, dict[str, float]], name: str, key: str) -> float:
    return summary.get(name, {}).get(key, 0.0)


def per_layer(
    summary: dict[str, dict[str, float]],
    layer_busy: dict[str, float],
    counts: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from a span summary and the program's counters.

    *summary* is :func:`tracing.summarize` output; *layer_busy* maps a
    span-name prefix to the union of its spans' intervals; *counts*
    holds the exact counts and the program's own counters for the same
    stretch of work (missing keys read as 0).
    """
    c = {name: 0.0 for name in (
        "messages", "words", "faults", "retransmits", "compiled", "fallbacks",
        "db_bytes", "region_computes", "crossover_computes", "mem_hits",
        "mem_misses", "disk_hits", "disk_misses", "serve_errors", "batches",
        "batched_points", "timer_flushes", "full_flushes", "tier_hits",
        "tier_misses", "tier_evictions", "jobs_queue_wait_ms", "rejected_503",
        "overhead_pct",
    )}
    c.update(counts)
    engine_busy = _get(summary, "engine.run", "busy_s")
    charged = _prefix(summary, "charging.message_times", "count")
    charging_busy = layer_busy.get("charging.", 0.0)
    points = _get(summary, "prediction.predict_points", "count")
    pp_calls = _get(summary, "prediction.predict_points", "calls")
    scan_points = _get(summary, "prediction.winner_details_at_points", "count")
    dispatches = _get(summary, "serve.dispatch", "calls")
    lookups = c["mem_hits"] + c["mem_misses"]
    tier_lookups = c["tier_hits"] + c["tier_misses"]
    queue_wait = _get(summary, "serve.batcher.predict_one", "mean_s") - _get(
        summary, "prediction.predict_points", "mean_s"
    )
    return {
        "engine.busy_s": engine_busy,
        "engine.self_s": _get(summary, "engine.run", "self_s"),
        "engine.ns_per_msg": _ratio(engine_busy * 1e9, c["messages"]),
        "engine.runs": _get(summary, "engine.run", "calls"),
        "engine.messages": c["messages"],
        "engine.words": c["words"],
        "algorithms.self_s": _prefix(summary, "algorithms.", "self_s"),
        "experiments.self_s": _prefix(summary, "experiments.", "self_s"),
        "compile.probe_s": _get(summary, "compile.compile_spmd", "busy_s"),
        "compile.replay_s": _get(summary, "compile.replay", "busy_s"),
        "compile.compiled": c["compiled"],
        "compile.fallbacks": c["fallbacks"],
        "charging.calls": _prefix(summary, "charging.", "calls"),
        "charging.s": charging_busy,
        "charging.ns_per_msg": _ratio(charging_busy * 1e9, charged),
        "faults.injected": c["faults"],
        "faults.retransmits": c["retransmits"],
        "campaign.s_per_scenario": _get(summary, "campaign.execute_scenario", "mean_s"),
        "campaign.oracle_s": _get(summary, "campaign.check_scenario", "busy_s"),
        "campaign.db_append_ms": _get(summary, "campaign.db_append", "mean_s") * 1e3,
        "campaign.bytes_written": c["db_bytes"],
        "campaign.sqlite_rebuild_s": _get(summary, "campaign.sqlite_rebuild", "busy_s"),
        "prediction.calls": pp_calls,
        "prediction.points": points,
        "prediction.ns_per_point": _ratio(
            _get(summary, "prediction.predict_points", "busy_s") * 1e9, points
        ),
        "prediction.mean_points_per_call": _ratio(points, pp_calls),
        "prediction.scan_ns_per_point": _ratio(
            _get(summary, "prediction.winner_details_at_points", "busy_s") * 1e9, scan_points
        ),
        "prediction.refine_s": _get(summary, "prediction.refine_winner_grid", "busy_s"),
        "regions.computes": c["region_computes"],
        "crossover.computes": c["crossover_computes"],
        "regions.s": layer_busy.get("regions.", 0.0),
        "cache.mem_hits": c["mem_hits"],
        "cache.mem_misses": c["mem_misses"],
        "cache.disk_hits": c["disk_hits"],
        "cache.disk_misses": c["disk_misses"],
        "cache.hit_ratio": _ratio(c["mem_hits"] + c["disk_hits"], lookups),
        "serve.protocol_ns_per_request": _ratio(
            layer_busy.get("serve.protocol.", 0.0) * 1e9, dispatches
        ),
        "serve.app_self_ms": _ratio(_get(summary, "serve.dispatch", "self_s") * 1e3, dispatches),
        "serve.errors": c["serve_errors"],
        "batcher.batches": c["batches"],
        "batcher.mean_batch": _ratio(c["batched_points"], c["batches"]),
        "batcher.timer_flush_share": _ratio(
            c["timer_flushes"], c["timer_flushes"] + c["full_flushes"]
        ),
        "batcher.queue_wait_ms": max(queue_wait, 0.0) * 1e3,
        "tier.hit_ratio": _ratio(c["tier_hits"], tier_lookups),
        "tier.evictions": c["tier_evictions"],
        "jobs.queue_wait_ms": c["jobs_queue_wait_ms"],
        "jobs.run_ms": _get(summary, "serve.jobs.run", "mean_s") * 1e3,
        "serve.rejected_503": c["rejected_503"],
        "trace.overhead_pct": c["overhead_pct"],
    }


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the *q* quantile of *values*.

    A Beta-weighted mean of all order statistics rather than one or two
    of them.  A pass has as few as 40 units of unequal sizes, so a plain
    percentile is one unit's time and carries that unit's noise alone;
    here the neighbouring units share it.
    """
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several passes."""
    return {k: float(np.median([r[k] for r in rows])) for k in rows[0]}


def as_output(values: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """``{"name": {"value": v, "unit": u}}`` as the result line wants it."""
    return {k: {"value": float(v), "unit": UNITS[k]} for k, v in values.items()}
