"""The batch workloads: each pass runs one fixed job and checks it.

A pass returns its wall time, the latency of each unit of work in it,
how many operations it attempted and how many failed, and an exact-count
fingerprint.  The fingerprint must repeat exactly on every pass of a
run (and on every run with the same seed); a pass whose fingerprint
differs from the first pass's counts as one failed operation.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import shutil
import time
from typing import Any, Callable

import numpy as np

from tracing import SimObserver

#: Crossovers printed in ``results/fig4.txt`` and ``results/fig5.txt``:
#: (simulated, model).  The simulated timings do not depend on the
#: operand values, so every seed must reproduce them exactly.
FIG45_CROSSOVERS = {
    "fig4": (74.22852949407638, 82.19218670625303),
    "fig5": (257.6538239928533, 294.3119904139276),
}

#: Every region map of Figures 1-3 shows the four algorithms' regions.
FIG123_REGIONS = {"berntsen", "cannon", "dns", "gk"}

#: Simulated efficiency of compiled Cannon at n = 8 * sqrt(p) on the
#: ``scaling`` machine (``python -m repro.experiments scaling-large
#: --no-verify --p-values 16384 65536``).
SCALE_EFFICIENCY = {16384: 0.7543972741504743, 65536: 0.7536685220111321}

#: The campaign battery: the autopilot's ``default`` profile at this
#: campaign seed (40 scenarios, 212 points).  The run's seed redraws
#: every scenario's operand seed.  Fault-plan seeds stay as drawn: they
#: decide which messages drop and so how much work a pass does, and
#: redrawing them moved the per-scenario latency by 16% between seeds.
CAMPAIGN_BASE_SEED = 17
CAMPAIGN_SCENARIOS = 40


@dataclasses.dataclass
class PassResult:
    """One pass of a fixed job; ``counters`` feed the per-layer metrics."""

    wall_s: float
    unit_s: list[float]
    attempted: int
    failed: int
    notes: list[str]
    fingerprint: dict[str, Any]
    counters: dict[str, float]
    speed: float = 1.0
    """Host speed factor measured around the pass (``hostinfo.host_speed``)."""
    bench_s: float = 0.0
    """Time the benchmark's own output checks took inside the pass."""

    @property
    def ref_wall_s(self) -> float:
        """The pass's wall time at the reference host speed."""
        return self.wall_s * self.speed


def sim_fingerprint(results: list[tuple]) -> dict[str, Any]:
    """Exact counts over a pass's simulations (order-independent)."""
    times = sorted(r[0] for r in results)
    return {
        "sim_runs": len(results),
        "sim_messages": sum(r[1] for r in results),
        "sim_words": sum(r[2] for r in results),
        "sim_faults": sum(r[3] for r in results),
        "sim_retransmits": sum(r[4] for r in results),
        "sim_compiled": sum(1 for r in results if r[5]),
        "sim_fallbacks": sum(1 for r in results if r[6] is not None),
        "sim_time_digest": hashlib.sha256(repr(times).encode()).hexdigest()[:16],
    }


def sim_counts(fingerprint: dict[str, Any]) -> dict[str, int]:
    """The simulation counts of a fingerprint, under the per-layer names."""
    return {
        name: fingerprint[f"sim_{name}"]
        for name in ("messages", "words", "faults", "retransmits", "compiled", "fallbacks")
    }


def odometers() -> dict[str, int]:
    from repro.core.crossover import crossover_compute_count
    from repro.core.prediction import prediction_counts
    from repro.core.regions import region_compute_count

    return {
        "region_computes": region_compute_count(),
        "crossover_computes": crossover_compute_count(),
        "predict_points": prediction_counts()["points"],
    }


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def cache_counts() -> dict[str, int]:
    """Flat hit/miss counters of both result-cache tiers."""
    from repro.core.cache import cache_stats

    stats = cache_stats()
    disk = stats["disk"] or {}
    return {
        "mem_hits": stats["memory"]["hits"],
        "mem_misses": stats["memory"]["misses"],
        "disk_hits": disk.get("hits", 0),
        "disk_misses": disk.get("misses", 0),
    }


def fresh_caches(directory: str) -> None:
    """Point the disk tier at an empty directory and empty the memory tier."""
    from repro.core.cache import configure_disk_cache, result_cache

    os.makedirs(directory, exist_ok=True)
    configure_disk_cache(directory)
    result_cache().clear()


class BatchWorkload:
    """One fixed job, run pass after pass."""

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: str, observer: SimObserver) -> None:
        self.seed = seed
        self.workdir = workdir
        self.observer = observer

    def setup(self) -> None:
        """Import what the job needs and build its inputs: set-up time pays for both."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def run_pass(self, k: int) -> PassResult:
        pass_dir = os.path.join(self.workdir, f"pass-{k}")
        fresh_caches(os.path.join(pass_dir, "cache"))
        self.observer.take()
        before_odo, before_cache = odometers(), cache_counts()
        t0 = time.perf_counter()
        res = self._job(pass_dir)
        res.wall_s = time.perf_counter() - t0 - res.bench_s
        res.counters.update(delta(cache_counts(), before_cache))
        res.fingerprint = {
            **sim_fingerprint(self.observer.take()),
            **delta(odometers(), before_odo),
            **res.fingerprint,
        }
        shutil.rmtree(pass_dir, ignore_errors=True)
        return res

    def _job(self, pass_dir: str) -> PassResult:
        """Run the job once; ``wall_s`` and the shared counts are filled in later."""
        raise NotImplementedError


def check_product(A: np.ndarray, B: np.ndarray, C: np.ndarray | None) -> bool:
    """Whether *C* is ``A @ B`` (the traced run times this as its own span)."""
    return C is not None and np.allclose(C, A @ B)


class PaperFigs(BatchWorkload):
    """Figures 1-5 from an empty cache; every Figure 4-5 product is checked here."""

    name = "paper-figs"
    unit = "simulated product of Figures 4-5"

    def setup(self) -> None:
        from repro.experiments import figures45, figures123  # noqa: F401

        # time and check every product at the names the figure calls
        self.products: list[float] = []
        self.wrong: list[str] = []
        self.check_s = 0.0
        for name in ("run_gk_cm5", "run_cannon"):
            setattr(figures45, name, self._checked(getattr(figures45, name)))

    def _checked(self, run: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(run)
        def checked(A: np.ndarray, B: np.ndarray, p: int, *args: Any, **kwargs: Any) -> Any:
            t = time.perf_counter()
            res = run(A, B, p, *args, **kwargs)
            t1 = time.perf_counter()
            self.products.append(t1 - t)
            if not check_product(A, B, res.C):
                self.wrong.append(f"{run.__name__} n={len(A)} p={p}: product is not A @ B")
            self.check_s += time.perf_counter() - t1
            return res

        return checked

    def _job(self, pass_dir: str) -> PassResult:
        from repro.experiments import figures45, figures123

        self.products.clear()
        self.wrong.clear()
        self.check_s = 0.0
        failures: list[str] = []
        maps = hashlib.sha256()
        for fig in ("fig1", "fig2", "fig3"):
            res = figures123.run(fig)
            maps.update(res.map.render().encode())
            maps.update(repr(sorted(res.curves.items())).encode())
            missing = FIG123_REGIONS - res.map.winners()
            if missing:
                failures.append(f"{fig}: no region for {sorted(missing)}")
        for fig, run in (("fig4", figures45.run_fig4), ("fig5", figures45.run_fig5)):
            try:
                res45 = run(seed=self.seed)
            except AssertionError as exc:  # the experiment's own product check
                failures.append(f"{fig}: {exc}")
                continue
            got = (res45.crossover_sim, res45.crossover_model)
            if got != FIG45_CROSSOVERS[fig]:
                failures.append(f"{fig}: crossovers {got} != {FIG45_CROSSOVERS[fig]}")
        failures += self.wrong
        res = PassResult(
            0.0, list(self.products), 3 + 2 + len(self.products), len(failures), failures,
            {"region_maps_digest": maps.hexdigest()[:16], "products": len(self.products)}, {},
        )
        res.bench_s = self.check_s
        return res


class CampaignFaults(BatchWorkload):
    """A fault-heavy autopilot battery written to a fresh run database."""

    name = "campaign-faults"
    unit = "scenario"

    def setup(self) -> None:
        import numpy as np

        from repro.campaign.autopilot import PROFILES, generate_battery
        from repro.campaign.database import CampaignDB
        from repro.campaign.runner import run_campaign  # noqa: F401

        rng = np.random.default_rng(self.seed)
        self.battery = [
            dataclasses.replace(s, seed=int(rng.integers(1 << 31)))
            for s in generate_battery(CAMPAIGN_BASE_SEED, CAMPAIGN_SCENARIOS, PROFILES["default"])
        ]
        self.source = {
            "kind": "autopilot",
            "seed": CAMPAIGN_BASE_SEED,
            "count": CAMPAIGN_SCENARIOS,
            "profile": "default",
            "reseeded_with": self.seed,
        }
        # one timestamp per scenario record: the unit boundary
        self.appended: list[float] = []
        original = CampaignDB.append
        appended = self.appended

        def append(db: CampaignDB, record: dict[str, Any]) -> None:
            original(db, record)
            appended.append(time.perf_counter())

        CampaignDB.append = append  # type: ignore[method-assign]

    def _job(self, pass_dir: str) -> PassResult:
        from repro.campaign.runner import run_campaign

        self.appended.clear()
        t0 = time.perf_counter()
        summary = run_campaign(self.battery, os.path.join(pass_dir, "db"), source=self.source)
        stamps = [t0, *self.appended]
        units = [b - a for a, b in zip(stamps, stamps[1:])]
        failed = summary.anomalous + summary.failed
        notes = [f"{summary.anomalous} anomalous and {summary.failed} failed scenarios"] if failed else []
        written = sum(
            os.path.getsize(os.path.join(pass_dir, f))
            for f in os.listdir(pass_dir)
            if f.startswith("db.")
        )
        return PassResult(
            0.0, units, summary.total, failed, notes,
            {"run_db_sha256": summary.fingerprint}, {"db_bytes": written},
        )


class ScaleCompiled(BatchWorkload):
    """Unverified Cannon at 16k and 64k ranks through compiled replay."""

    name = "scale-compiled"
    unit = "run"

    def setup(self) -> None:
        from repro.experiments import scaling  # noqa: F401

    def _job(self, pass_dir: str) -> PassResult:
        from repro.experiments import scaling

        units: list[float] = []
        failures: list[str] = []
        for p, expected in SCALE_EFFICIENCY.items():
            t = time.perf_counter()
            (row,) = scaling.scaled_speedup(
                "cannon", n0=8, p_values=(p,), seed=self.seed, verify=False,
                scheduler="compiled",
            )
            units.append(time.perf_counter() - t)
            (sim,) = self.observer.results[-1:]
            if not sim[5] or sim[6] is not None:
                failures.append(f"p={p}: not compiled (fallback: {sim[6]!r})")
            elif row["efficiency_sim"] != expected:
                failures.append(f"p={p}: efficiency {row['efficiency_sim']!r} != {expected!r}")
        return PassResult(0.0, units, len(units), len(failures), failures, {}, {})

