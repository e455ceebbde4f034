"""Span tracing around the program's layer boundaries, from outside.

The traced run wraps each layer's public entry points at the names their
callers resolve (a module attribute, a class attribute, or a registry
entry) and records one span per call: ``(id, parent, name, start, end,
count)``.  ``count`` is the amount of work the call was handed (messages
charged, points scanned), read from its arguments.  Spans are kept in
memory and written out once, when the run ends.  The untraced run
installs only :class:`SimObserver`, which reads each simulation's
result and times nothing.

A span's *self time* is its duration minus the part of it that its
child spans cover; children of an ``async`` span can overlap, so the
covered part is the union of their intervals.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import threading
import time
from typing import Any, Callable

import numpy as np

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


def _np_size(value: Any) -> int:
    return int(np.size(value))


def _points(args: tuple, kwargs: dict) -> int:
    # predict_points(machine, n_points, p_points, ...)
    return int(np.size(args[1])) if len(args) > 1 else 0


def _winner_points(args: tuple, kwargs: dict) -> int:
    # winner_details_at_points(machine, n, p, ...) broadcasts n against p
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _clock_messages(args: tuple, kwargs: dict) -> int:
    # message_times(machine, clock, nwords, hops): one message per clock entry
    return _np_size(args[1])


def _wait_messages(args: tuple, kwargs: dict) -> int:
    # recv_wait_times(clock, arrival)
    return _np_size(args[0])


#: ``(module, attribute path, span name, work counter)`` — every wrapped
#: entry point.  The attribute path is looked up on the module; a dotted
#: path names a class attribute.  Work counters read the call's arguments.
TARGETS: tuple[tuple[str, str, str, Callable[[tuple, dict], int] | None], ...] = (
    # engine
    ("repro.simulator.engine", "Engine.run", "engine.run", None),
    # trace compilation, at the names the engine resolves
    ("repro.simulator.engine", "compile_spmd", "compile.compile_spmd", None),
    ("repro.simulator.compile", "BatchSchedule.replay", "compile.replay", None),
    # charging and macro collectives, at each caller's binding
    ("repro.simulator.engine", "message_times", "charging.message_times", _clock_messages),
    ("repro.simulator.engine", "run_collective", "charging.run_collective", None),
    ("repro.simulator.compile", "message_times", "charging.message_times", _clock_messages),
    ("repro.simulator.compile", "recv_wait_times", "charging.recv_wait_times", _wait_messages),
    ("repro.simulator.compile", "run_batch_collective", "charging.run_batch_collective", None),
    ("repro.simulator.macro", "message_times", "charging.message_times", _clock_messages),
    ("repro.simulator.macro", "recv_wait_times", "charging.recv_wait_times", _wait_messages),
    # algorithm drivers as the figure experiment binds them (registry
    # entries are wrapped separately, see Tracer.install)
    ("repro.experiments.figures45", "run_cannon", "algorithms.run_cannon", None),
    ("repro.experiments.figures45", "run_gk_cm5", "algorithms.run_gk_cm5", None),
    # experiments, as the benchmark calls them
    ("repro.experiments.figures123", "run", "experiments.figures123.run", None),
    ("repro.experiments.figures45", "run_fig4", "experiments.run_fig4", None),
    ("repro.experiments.figures45", "run_fig5", "experiments.run_fig5", None),
    ("repro.experiments.scaling", "scaled_speedup", "experiments.scaled_speedup", None),
    # campaign
    ("repro.campaign.runner", "execute_scenario", "campaign.execute_scenario", None),
    ("repro.campaign.executor", "check_scenario", "campaign.check_scenario", None),
    ("repro.campaign.database", "CampaignDB.append", "campaign.db_append", None),
    ("repro.campaign.database", "CampaignDB.sync_sqlite", "campaign.sqlite_rebuild", None),
    # analysis layer
    ("repro.serve.batcher", "predict_points", "prediction.predict_points", _points),
    ("repro.core.refine", "winner_details_at_points", "prediction.winner_details_at_points", _winner_points),
    ("repro.core.refine", "refine_winner_grid", "prediction.refine_winner_grid", None),
    ("repro.core.regions", "region_map", "regions.region_map", None),
    ("repro.core.crossover", "crossover_curve", "regions.crossover_curve", None),
    ("repro.experiments.figures123", "region_map", "regions.region_map", None),
    ("repro.experiments.figures123", "crossover_curve", "regions.crossover_curve", None),
    # serving
    ("repro.serve.app", "ReproServer.dispatch", "serve.dispatch", None),
    ("repro.serve.app", "machine_from_payload", "serve.protocol.machine_from_payload", None),
    ("repro.serve.app", "parse_points", "serve.protocol.parse_points", None),
    ("repro.serve.app", "json_bytes", "serve.protocol.json_bytes", None),
    ("repro.serve.batcher", "MicroBatcher.predict_one", "serve.batcher.predict_one", None),
    ("repro.serve.batcher", "MicroBatcher.predict_many", "serve.batcher.predict_many", None),
    ("repro.serve.cache", "ServeTier.region", "serve.tier.region", None),
    ("repro.serve.cache", "ServeTier.curve", "serve.tier.curve", None),
    ("repro.serve.app", "simulated_prediction", "serve.jobs.run", None),
    # the benchmark's own product check, so that no layer's self time counts it
    ("workloads", "check_product", "bench.check_product", None),
)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder that patches :data:`TARGETS` in place."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []
        self._registry: dict[str, Any] = {}

    def _record(self, name: str, parent: int | None, start: float, count: int) -> list[Any]:
        span = [next(self._ids), parent, name, start, start, count]
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of *fn*."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                span = self._record(name, _CURRENT.get(), time.perf_counter(), 0)
                token = _CURRENT.set(span[0])
                try:
                    return await fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    span[4] = time.perf_counter()

            return awrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            count = counter(args, kwargs) if counter else 0
            span = self._record(name, _CURRENT.get(), time.perf_counter(), count)
            token = _CURRENT.set(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                span[4] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        """Patch every target, plus the algorithm registry's entries."""
        for module, path, name, counter in TARGETS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))
        from repro.algorithms import registry

        self._registry = dict(registry.REGISTRY)
        for key, entry in self._registry.items():
            registry.REGISTRY[key] = dataclasses.replace(
                entry, run=self.wrap(entry.run, f"algorithms.{key}")
            )

    def uninstall(self) -> None:
        """Undo :meth:`install` (latest patch first)."""
        from repro.algorithms import registry

        registry.REGISTRY.update(self._registry)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals*."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds, work count.

    *busy* is the union of the name's span intervals (concurrent calls
    count once); *self* sums each span's duration minus the union of its
    children's intervals clipped to it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _count in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    by_name: dict[str, dict[str, Any]] = {}
    for sid, _parent, name, start, end, count in spans:
        entry = by_name.setdefault(
            name, {"calls": 0, "self_s": 0.0, "count": 0, "durations": [], "intervals": []}
        )
        covered = _union(
            [(max(a, start), min(b, end)) for a, b in children.get(sid, ()) if b > start and a < end]
        )
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        entry["count"] += count
        entry["durations"].append(end - start)
        entry["intervals"].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for name, e in by_name.items():
        out[name] = {
            "calls": e["calls"],
            "busy_s": _union(e["intervals"]),
            "self_s": e["self_s"],
            "count": e["count"],
            "mean_s": float(np.mean(e["durations"])),
        }
    return out


#: Span-name prefixes whose union of intervals the per-layer metrics use.
LAYER_PREFIXES = ("charging.", "regions.", "serve.protocol.")


def layer_busy(spans: list[list[Any]], prefixes: tuple[str, ...]) -> dict[str, float]:
    """Per name prefix: the union of the intervals of its spans."""
    return {
        prefix: _union([(s[3], s[4]) for s in spans if s[2].startswith(prefix)])
        for prefix in prefixes
    }


class SimObserver:
    """Reads every simulation's result at ``Engine.run`` (both modes).

    It records no time: only the counts the exact-count fingerprint and
    the output checks need (parallel time, messages, words, faults,
    retransmits, and whether a compiled run really compiled).
    """

    def __init__(self) -> None:
        self.results: list[tuple[float, int, int, int, int, bool, str | None]] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        from repro.simulator.engine import Engine

        original = Engine.__dict__["run"]
        observer = self

        @functools.wraps(original)
        def run(self: Any, *args: Any, **kwargs: Any) -> Any:
            res = original(self, *args, **kwargs)
            row = (
                float(res.parallel_time),
                int(res.total_messages),
                int(res.total_words),
                int(res.faults_injected),
                int(res.retransmits),
                bool(res.compiled),
                res.compile_fallback,
            )
            with observer._lock:
                observer.results.append(row)
            return res

        Engine.run = run  # type: ignore[method-assign]

    def take(self) -> list[tuple[float, int, int, int, int, bool, str | None]]:
        """Results recorded since the last call, in completion order."""
        with self._lock:
            out, self.results = self.results, []
        return out
