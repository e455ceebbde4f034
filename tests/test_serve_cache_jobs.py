"""ServeTier (bounded serving LRU + warm preloading) and JobQueue."""

import asyncio

import pytest

from repro.core import crossover, regions
from repro.core.cache import configure_disk_cache, result_cache
from repro.core.machine import PRESETS
from repro.core.prediction import simulated_prediction
from repro.serve.cache import (
    DEFAULT_CURVE_P,
    DEFAULT_CURVE_PAIRS,
    DEFAULT_PRELOAD_MACHINES,
    DEFAULT_REGION_SPEC,
    ServeTier,
)
from repro.serve.jobs import JobQueue

NCUBE = PRESETS["ncube2-like"]


class TestServeTier:
    def test_region_lru_hit(self):
        tier = ServeTier(max_entries=8)
        a = tier.region(NCUBE, log2_p_max=10, log2_n_max=8)
        b = tier.region(NCUBE, log2_p_max=10, log2_n_max=8)
        assert a is b  # second call came from the serving LRU
        stats = tier.stats()
        assert stats["lru"]["hits"] == 1
        assert stats["lru"]["maxsize"] == 8

    def test_distinct_specs_are_distinct_entries(self):
        tier = ServeTier(max_entries=8)
        a = tier.region(NCUBE, log2_p_max=10, log2_n_max=8)
        b = tier.region(NCUBE, log2_p_max=12, log2_n_max=8)
        assert a is not b
        assert len(a.cells[0]) != len(b.cells[0])  # different p extents

    def test_bounded_eviction(self):
        tier = ServeTier(max_entries=2)
        for k in (8, 9, 10):
            tier.region(NCUBE, log2_p_max=k, log2_n_max=6)
        stats = tier.stats()["lru"]
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        # the evicted (oldest) entry recomputes; the newest still hits
        tier.region(NCUBE, log2_p_max=10, log2_n_max=6)
        assert tier.stats()["lru"]["hits"] == 1

    def test_curve_cached(self):
        tier = ServeTier()
        p_values = (16.0, 256.0, 4096.0)
        a = tier.curve("cannon", "gk", NCUBE, p_values)
        b = tier.curve("cannon", "gk", NCUBE, p_values)
        assert a is b
        assert len(a) == 3

    def test_preload_warm_from_disk_is_free(self):
        # populate the disk tier the way a previous server run would,
        # then drop the memory tier: the restart-shaped state
        for name in DEFAULT_PRELOAD_MACHINES:
            machine = PRESETS[name]
            regions.region_map(machine, **DEFAULT_REGION_SPEC)
            for a, b in DEFAULT_CURVE_PAIRS:
                crossover.crossover_curve(a, b, machine, DEFAULT_CURVE_P)
        result_cache().clear()
        before = regions.region_compute_count() + crossover.crossover_compute_count()
        tier = ServeTier()
        summary = tier.preload()
        after = regions.region_compute_count() + crossover.crossover_compute_count()
        assert summary["computed_fresh"] == 0
        assert after == before  # not one model evaluation
        assert summary["entries"] == len(DEFAULT_PRELOAD_MACHINES) * (
            1 + len(DEFAULT_CURVE_PAIRS)
        )
        assert summary["disk_tier"] == "enabled"
        # the preloaded artifacts now serve straight from the LRU
        tier.region(PRESETS[DEFAULT_PRELOAD_MACHINES[0]], **DEFAULT_REGION_SPEC)
        assert tier.stats()["lru"]["hits"] == 1

    def test_preload_cold_computes_once_and_still_warms(self, monkeypatch):
        # REPRO_NO_DISK_CACHE: nothing persisted — preload pays the
        # compute now, but the server still starts warm
        configure_disk_cache(None, enabled=False)
        tier = ServeTier()
        summary = tier.preload(machines=("cm5",), curves=False)
        assert summary["disk_tier"] == "disabled"
        assert summary["computed_fresh"] == 1
        before = regions.region_compute_count()
        tier.region(PRESETS["cm5"], **DEFAULT_REGION_SPEC)
        assert regions.region_compute_count() == before  # served from LRU
        assert tier.stats()["lru"]["hits"] == 1


@pytest.mark.parametrize(
    "algorithm,n,p,verified",
    [("cannon", 16, 16, True), ("simple", 16, 16, None), ("berntsen", 8, 8, None),
     ("gk", 16, 8, True)],
)
def test_compiled_job_verified_unless_timing_only(algorithm, n, p, verified):
    """A compiled job verifies its product where the replay (Cannon) or the
    ready fallback (GK) yields one; simple and Berntsen run timing-only
    rather than falling back to ready, with the ready run's timing."""
    got = simulated_prediction(algorithm, n, p, NCUBE, scheduler="compiled")
    ready = simulated_prediction(algorithm, n, p, NCUBE, scheduler="ready")
    assert got["verified"] is verified
    assert ready["verified"] is True
    assert got["simulated_time"] == ready["simulated_time"]


@pytest.mark.parametrize("scheduler", ["heap", "fifo"])
def test_job_with_unknown_scheduler_is_rejected_listing_known_ones(scheduler):
    from repro.serve import ReproServer, ServeConfig

    server = ReproServer(ServeConfig(preload=False))
    body = {"machine": "cm5", "algorithm": "cannon", "n": 16, "p": 16,
            "scheduler": scheduler}
    status, payload = asyncio.run(server.dispatch("POST", "/jobs", body))
    assert status == 400
    assert "ready, rescan, compiled" in payload["error"]


class TestJobQueue:
    def test_lifecycle_and_cached_resubmit(self):
        async def go():
            queue = JobQueue(workers=1)
            await queue.start()
            try:
                params = {"algorithm": "cannon", "n": 8, "p": 4, "seed": 0}

                def run():
                    return simulated_prediction("cannon", 8, 4, NCUBE, seed=0)

                job = queue.submit("simulate", params, run)
                assert job.status == "queued"
                for _ in range(500):
                    if job.status in ("done", "error"):
                        break
                    await asyncio.sleep(0.01)
                assert job.status == "done", job.error
                assert job.result["verified"] is True
                # same params resolve instantly from the result cache
                again = queue.submit("simulate", params, run)
                assert again.status == "done"
                assert again.cached is True
                assert again.result == job.result
                assert queue.stats()["cache_hits"] == 1
            finally:
                await queue.stop()

        asyncio.run(go())

    def test_failed_job_records_error(self):
        async def go():
            queue = JobQueue(workers=1)
            await queue.start()
            try:
                def boom():
                    raise RuntimeError("engine exploded")

                job = queue.submit("simulate", {"x": 1}, boom)
                for _ in range(500):
                    if job.status in ("done", "error"):
                        break
                    await asyncio.sleep(0.01)
                assert job.status == "error"
                assert "engine exploded" in job.error
                assert queue.stats()["failed"] == 1
                # a failure is not cached: resubmission queues again
                again = queue.submit("simulate", {"x": 1}, boom)
                assert again.cached is False
            finally:
                await queue.stop()

        asyncio.run(go())

    def test_queue_full_raises(self):
        async def go():
            queue = JobQueue(workers=1, max_pending=2)
            # workers never started: submissions pile up in the queue
            for i in range(2):
                queue.submit("simulate", {"i": i}, lambda: None)
            with pytest.raises(asyncio.QueueFull):
                queue.submit("simulate", {"i": 99}, lambda: None)

        asyncio.run(go())

    def test_history_bound_forgets_finished_first(self):
        async def go():
            queue = JobQueue(workers=1, max_pending=64, history=3)
            await queue.start()
            try:
                jobs = [
                    queue.submit("simulate", {"i": i}, lambda i=i: i) for i in range(6)
                ]
                for job in jobs:
                    for _ in range(500):
                        if job.status == "done":
                            break
                        await asyncio.sleep(0.01)
                # trimming happens at submit time and spares live jobs;
                # now that everything finished, the next submit prunes
                last = queue.submit("simulate", {"i": 99}, lambda: 99)
                assert queue.stats()["tracked"] <= 3
                # the newest job is always still pollable
                assert queue.get(last.id) is not None
            finally:
                await queue.stop()

        asyncio.run(go())

    def test_deterministic_ids(self):
        async def go():
            queue = JobQueue(workers=1)
            a = queue.submit("simulate", {"i": 1}, lambda: 1)
            b = queue.submit("simulate", {"i": 2}, lambda: 2)
            assert (a.id, b.id) == ("job-000001", "job-000002")

        asyncio.run(go())

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            JobQueue(workers=0)
