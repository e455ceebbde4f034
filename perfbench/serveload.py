"""The ``serve-closedloop`` workload: an in-process server under a fixed request list.

One ``ReproServer`` (preload on, cold cache, 64-entry serving LRU) runs
on this process's event loop.  A pass sends one fixed, seeded request
list closed-loop, each client waiting for its reply before it sends the
next request:

1. **Dispatch phase.**  ``LANES`` logical clients call
   ``ReproServer.dispatch()`` directly, so hundreds of requests are in
   flight without a socket each and the batcher both fills batches and
   flushes partial ones on its timer.  Every artifact and job request
   goes to one extra lane of its own, in order, so no two artifact
   computations overlap and the compute odometers stay exact.
2. **HTTP phase.**  Point predictions over at most ``nproc`` keep-alive
   HTTP sockets, so HTTP framing is timed too.
3. The pass ends when every submitted job has finished.

The mix: mostly single-point ``/predict`` over three machines weighted
0.6/0.3/0.1, 1% eight-point requests, 1% ``/regions`` (half of them
refined) and 1% ``/crossover`` on machines drawn from a set larger than
the serving LRU (so some miss), and 0.2% ``/jobs``.  Every ``/predict``
answer must equal, field for field and float for float, a direct
``predict_points`` evaluation of the same points.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from typing import Any

import numpy as np

from workloads import BatchWorkload, PassResult

#: Logical clients of the dispatch phase (the artifact lane comes on top).
LANES = 512
DISPATCH_REQUESTS = 6000
HTTP_REQUESTS = 600

#: Serving-LRU entries; the artifact machine set is larger.
LRU_ENTRIES = 64
ARTIFACT_MACHINES = tuple(
    {"ts": ts, "tw": tw}
    for ts in (2.0, 5.0, 10.0, 20.0, 40.0, 75.0, 150.0, 300.0, 600.0, 1000.0, 2000.0, 5000.0)
    for tw in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0)
)

#: Point-query machines and weights (the load generator's weighting).
POINT_MACHINES: tuple[Any, ...] = ("ncube2-like", "future-mimd", {"preset": "cm5", "ts": 90.0})
POINT_WEIGHTS = (0.6, 0.3, 0.1)

#: Request-kind shares; the rest are single-point predictions.
MIX = (("multi", 0.01), ("regions", 0.01), ("crossover", 0.01), ("jobs", 0.002))

#: Request kinds that run on the artifact lane.
ARTIFACT_PATHS = ("/regions", "/crossover", "/jobs")

Request = tuple[str, str, dict[str, Any]]


class Mix:
    """Seeded request bodies in the workload's mix."""

    def __init__(self, seed: int, points_only: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        self.shares = MIX[:1] if points_only else MIX
        ranks = np.arange(1, len(ARTIFACT_MACHINES) * 2 + 1)
        self.artifact_p = (1.0 / ranks) / (1.0 / ranks).sum()

    def _point(self) -> tuple[Any, float, float]:
        rng = self.rng
        machine = POINT_MACHINES[int(rng.choice(3, p=POINT_WEIGHTS))]
        return machine, float(2.0 ** rng.uniform(0.0, 16.0)), float(2.0 ** rng.uniform(0.0, 30.0))

    def request(self) -> Request:
        u = float(self.rng.random())
        for kind, share in self.shares:
            if u < share:
                break
            u -= share
        else:
            kind = "single"
        if kind == "single":
            machine, n, p = self._point()
            return "POST", "/predict", {"machine": machine, "n": n, "p": p}
        if kind == "multi":
            machine, _, _ = self._point()
            pts = [self._point()[1:] for _ in range(8)]
            return "POST", "/predict", {"machine": machine, "points": [{"n": n, "p": p} for n, p in pts]}
        if kind == "jobs":
            return "POST", "/jobs", {
                "algorithm": "cannon", "n": 8, "p": 4, "machine": "ncube2-like",
                "seed": int(self.rng.integers(1 << 30)),
            }
        key = int(self.rng.choice(len(self.artifact_p), p=self.artifact_p))
        machine = ARTIFACT_MACHINES[key // 2]
        if key % 2 == 0:
            return "POST", "/regions", {"machine": machine, "refine": bool(self.rng.random() < 0.5)}
        return "POST", "/crossover", {"machine": machine, "a": "cannon", "b": "gk"}

    def requests(self, count: int) -> list[Request]:
        return [self.request() for _ in range(count)]


def expected_answers(reqs: list[Request]) -> list[list[dict[str, Any]] | None]:
    """Direct ``predict_points`` records for every /predict request."""
    from repro.core.machine import PRESETS
    from repro.core.prediction import predict_points

    groups: dict[str, tuple[Any, list[int], list[tuple[float, float]]]] = {}
    for i, (_, path, body) in enumerate(reqs):
        if path != "/predict":
            continue
        points = (
            [(q["n"], q["p"]) for q in body["points"]] if "points" in body
            else [(body["n"], body["p"])]
        )
        g = groups.setdefault(json.dumps(body["machine"], sort_keys=True), (body["machine"], [], []))
        g[1].extend([i] * len(points))
        g[2].extend(points)
    out: list[list[dict[str, Any]] | None] = [None] * len(reqs)
    for spec, owners, points in groups.values():
        if isinstance(spec, str):
            machine = PRESETS[spec]
        else:
            fields = dict(spec)
            machine = dataclasses.replace(PRESETS[fields.pop("preset")], **fields)
        batch = predict_points(machine, [n for n, _ in points], [p for _, p in points])
        for k, owner in enumerate(owners):
            if out[owner] is None:
                out[owner] = []
            out[owner].append(batch.point(k))  # type: ignore[union-attr]
    return out


async def http_request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    method: str, path: str, body: dict[str, Any] | None,
) -> tuple[int, dict[str, Any]]:
    """One keep-alive HTTP/1.1 JSON exchange."""
    data = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\nConnection: keep-alive\r\n\r\n".encode("latin-1") + data
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def server_counts(server: Any) -> dict[str, int]:
    """The server's own counters, flattened."""
    b = server.batcher.stats()
    lru = server.tier.stats()["lru"]
    return {
        "batches": b["batches"],
        "batched_points": b["batched_points"],
        "timer_flushes": b["timer_flushes"],
        "full_flushes": b["full_flushes"],
        "tier_hits": lru["hits"],
        "tier_misses": lru["misses"],
        "tier_evictions": lru["evictions"],
        "serve_errors": server.errors,
    }


class Checks:
    """Status and answer checks of one pass's replies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.jobs: list[tuple[str, float]] = []
        self.rejected_503 = 0

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def reply(self, path: str, status: int, payload: dict[str, Any], expected: Any) -> None:
        self.attempted += 1
        self.rejected_503 += status == 503
        if not 200 <= status < 300:
            self.fail(f"HTTP {status} for {path}: {payload.get('error')}")
        elif expected is not None and payload["predictions"] != expected:
            self.fail(f"/predict answer differs from predict_points: {payload}")
        elif path == "/jobs":
            self.jobs.append((payload["job"]["id"], time.perf_counter()))


class ServeClosedLoop(BatchWorkload):
    """A fixed request list, closed-loop through ``dispatch()`` and HTTP."""

    name = "serve-closedloop"
    unit = "request of the dispatch phase"

    def setup(self) -> None:
        import repro.serve.app as app
        from repro.serve.app import ReproServer, ServeConfig

        self.loop = asyncio.new_event_loop()
        self.server = ReproServer(ServeConfig(preload=True, cache_entries=LRU_ENTRIES))
        self.loop.run_until_complete(self.server.start())

        reqs = Mix(self.seed).requests(DISPATCH_REQUESTS)
        expected = expected_answers(reqs)
        artifact = [i for i, r in enumerate(reqs) if r[1] in ARTIFACT_PATHS]
        points = [i for i, r in enumerate(reqs) if r[1] not in ARTIFACT_PATHS]
        lanes = [artifact] + [points[k::LANES] for k in range(LANES)]
        self.lanes = [[(*reqs[i], expected[i]) for i in lane] for lane in lanes]
        http = Mix(self.seed + 1, points_only=True).requests(HTTP_REQUESTS)
        conns = max(1, min(os.cpu_count() or 1, 4))
        self.conns = [list(zip(http, expected_answers(http)))[k::conns] for k in range(conns)]

        # when each job starts running: its queue wait ends there
        self.job_starts: list[float] = []
        original = app.simulated_prediction
        starts = self.job_starts

        def simulated_prediction(*args: Any, **kwargs: Any) -> Any:
            starts.append(time.perf_counter())
            return original(*args, **kwargs)

        app.simulated_prediction = simulated_prediction

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def _job(self, pass_dir: str) -> PassResult:
        from repro.serve.cache import ServeTier

        # every pass starts with an empty serving LRU, as the caches below it
        self.server.tier = ServeTier(max_entries=LRU_ENTRIES)
        before = server_counts(self.server)
        self.job_starts.clear()
        checks = Checks()
        units = self.loop.run_until_complete(self._pass(checks))
        counters = {k: v - before[k] for k, v in server_counts(self.server).items()}
        waits = [s - t for s, (_, t) in zip(sorted(self.job_starts), checks.jobs)]
        counters["jobs_queue_wait_ms"] = float(np.mean(waits) * 1e3) if waits else 0.0
        counters["rejected_503"] = checks.rejected_503
        return PassResult(
            0.0, units, checks.attempted, checks.failed, checks.notes,
            {"requests": DISPATCH_REQUESTS + HTTP_REQUESTS, "jobs": len(checks.jobs)},
            counters,
        )

    async def _pass(self, checks: Checks) -> list[float]:
        units: list[float] = []
        dispatch = self.server.dispatch

        async def lane(reqs: list) -> None:
            for method, path, body, expected in reqs:
                t = time.perf_counter()
                status, payload = await dispatch(method, path, body)
                units.append(time.perf_counter() - t)
                checks.reply(path, status, payload, expected)

        async def conn(reqs: list) -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
            try:
                for (method, path, body), expected in reqs:
                    status, payload = await http_request(reader, writer, method, path, body)
                    checks.reply(path, status, payload, expected)
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(lane(reqs) for reqs in self.lanes))
        await asyncio.gather(*(conn(reqs) for reqs in self.conns))
        await self._finish_jobs(checks)
        return units

    async def _finish_jobs(self, checks: Checks, timeout: float = 30.0) -> None:
        """Wait for every submitted job; each must end ``done``."""
        deadline = time.perf_counter() + timeout
        for job_id, _ in checks.jobs:
            job = self.server.jobs.get(job_id)
            while (job is not None and job.status not in ("done", "error")
                   and time.perf_counter() < deadline):
                await asyncio.sleep(0.001)
            checks.attempted += 1
            status, payload = await self.server.dispatch("GET", f"/jobs/{job_id}")
            if status != 200 or payload["job"]["status"] != "done":
                checks.fail(f"job {job_id}: {payload}")
