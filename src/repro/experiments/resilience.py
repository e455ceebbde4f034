"""Experiment ``resilience`` — efficiency under faults at the Section 9 operating point.

The paper's CM-5 comparison (Figure 4: Cannon vs GK at ``p = 64``)
assumes a failure-free machine.  This experiment reruns that operating
point under the deterministic fault model
(:mod:`repro.simulator.faults`) and asks two questions the paper could
not:

1. **Efficiency vs fault rate** — how quickly do the two algorithms'
   efficiencies degrade as the per-message drop probability rises (each
   drop costs a retransmission after an exponential-backoff timeout)?
   GK moves fewer, larger messages than Cannon at the same point, so the
   same drop probability taxes them differently.
2. **Optimal checkpoint interval** — with ranks crashing at a fixed
   rate, how does total time vary with the periodic checkpoint interval,
   and does the simulated optimum agree with Young's first-order
   ``sqrt(2 * C * MTBF)``
   (:func:`repro.core.metrics.young_checkpoint_interval`)?  Checkpoint
   too often and the checkpoint cost dominates; too rarely and every
   crash replays a long tail of lost work.

Every fault run still produces the numerically exact product — faults
perturb *time*, never payloads — and the fault-free baseline here is
bit-identical to the Figure 4 pipeline (the fuzz gate pins that).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.algorithms.base import MatmulResult
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk_cm5
from repro.core.machine import CM5, MachineParams
from repro.core.metrics import young_checkpoint_interval
from repro.experiments.report import format_table
from repro.simulator.engine import SimConfig
from repro.simulator.faults import FaultPlan
from repro.simulator.topology import FullyConnected

__all__ = ["ResilienceReport", "run", "format_text", "to_json"]

#: per-message drop probabilities swept for the efficiency curve
_DROP_RATES = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)

#: checkpoint intervals swept, as multiples of Young's optimum
_INTERVAL_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class ResilienceReport:
    """Fault-rate and checkpoint-interval curves for Cannon and GK."""

    p: int
    n: int
    machine: MachineParams
    crash_rate: float
    """Expected crashes per rank over each algorithm's fault-free runtime."""

    scheduler: str | None
    """Engine scheduler the curves were simulated on (``None`` = engine
    default).  The ready scheduler's exact fault loop is bit-identical
    to the reference, so every row is scheduler-independent — a property
    the test suite pins by diffing whole reports across schedulers."""

    baseline: dict
    """Fault-free ``T_p`` and efficiency per algorithm (the Figure 4 point)."""

    fault_rows: tuple[dict, ...]
    """Per drop rate: efficiency and retransmit counts per algorithm."""

    checkpoint_rows: tuple[dict, ...]
    """Per interval factor: interval, total time, checkpoint/recovery time
    per algorithm."""

    young: dict
    """Young's optimal interval per algorithm (``sqrt(2*C*MTBF)``)."""

    best: dict
    """The swept interval factor minimizing simulated ``T_p`` per algorithm."""


def _operands(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng((seed, n))
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _run_one(
    name: str,
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams,
    config: SimConfig,
) -> MatmulResult:
    if name == "cannon":
        return run_cannon(
            A, B, p, machine=machine, topology=FullyConnected(p), config=config
        )
    return run_gk_cm5(A, B, p, machine=machine, config=config)


def _run_pair(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams,
    config: SimConfig,
) -> dict[str, MatmulResult]:
    """Both algorithms at the same operating point under the same config."""
    return {
        name: _run_one(name, A, B, p, machine, config)
        for name in ("cannon", "gk")
    }


def run(
    p: int = 64,
    n: int = 96,
    machine: MachineParams = CM5,
    *,
    drop_rates: tuple[float, ...] = _DROP_RATES,
    interval_factors: tuple[float, ...] = _INTERVAL_FACTORS,
    crash_rate: float = 2.0,
    seed: int = 0,
    verify: bool = True,
    scheduler: str | None = None,
) -> ResilienceReport:
    """Sweep fault rate and checkpoint interval for Cannon and GK at *p*.

    ``n = 96`` is the paper's measured Figure 4 crossover, so both
    algorithms start from comparable fault-free efficiency.  The
    retransmission timeout is one block-transfer time; checkpoint and
    recovery costs are fixed small fractions of the fault-free runtime
    so the interval sweep exposes the classic U-shaped tradeoff.

    *scheduler* selects the engine core (``None`` runs ``"ready"``).
    Fault-active runs are bit-identical between the reference (rescan)
    and ready schedulers — ``ready`` runs its exact loop under a plan —
    so the report's curves do not depend on it; the choice only changes
    how the timeline is scheduled internally.
    """
    A, B = _operands(n, seed)
    expected = A @ B if verify else None
    config = SimConfig() if scheduler is None else SimConfig(scheduler=scheduler)

    base = _run_pair(A, B, p, machine, config)
    if expected is not None:
        for name, res in base.items():
            if not np.allclose(res.C, expected):
                raise AssertionError(f"numerical mismatch in fault-free {name} at n={n}")
    baseline = {
        name: {"T": res.parallel_time, "E": res.efficiency}
        for name, res in base.items()
    }

    # one ack-timeout ~ one block injection: the time to put an
    # (n^2/p)-word block on the wire
    timeout = machine.ts + machine.tw * (n * n / p)

    fault_rows = []
    for rate in drop_rates:
        if rate == 0.0:
            results = base
        else:
            plan = FaultPlan(seed=seed, drop_rate=rate, timeout=timeout)
            results = _run_pair(A, B, p, machine, replace(config, fault_plan=plan))
            if expected is not None:
                for name, res in results.items():
                    if not np.allclose(res.C, expected):
                        raise AssertionError(
                            f"numerical mismatch in {name} at drop_rate={rate}"
                        )
        fault_rows.append(
            {
                "drop_rate": rate,
                "E_cannon": results["cannon"].efficiency,
                "E_gk": results["gk"].efficiency,
                "retrans_cannon": results["cannon"].sim.retransmits,
                "retrans_gk": results["gk"].sim.retransmits,
            }
        )

    # checkpoint-interval sweep: each algorithm crashes crash_rate times
    # per rank (in expectation) over its own fault-free runtime, so the
    # per-rank MTBF — and with it Young's optimum — is per-algorithm
    ckpt_cost = {name: 0.02 * baseline[name]["T"] for name in base}
    recovery = {name: 0.05 * baseline[name]["T"] for name in base}
    young = {
        name: young_checkpoint_interval(
            ckpt_cost[name], baseline[name]["T"] / crash_rate
        )
        for name in base
    }

    checkpoint_rows = []
    for factor in interval_factors:
        row: dict = {"factor": factor}
        for name in ("cannon", "gk"):
            plan = FaultPlan(
                seed=seed,
                crash_rate=crash_rate,
                horizon=baseline[name]["T"],
                checkpoint_interval=factor * young[name],
                checkpoint_cost=ckpt_cost[name],
                recovery_cost=recovery[name],
            )
            res = _run_one(name, A, B, p, machine, replace(config, fault_plan=plan))
            if expected is not None and not np.allclose(res.C, expected):
                raise AssertionError(f"numerical mismatch in {name} at factor={factor}")
            row[f"interval_{name}"] = factor * young[name]
            row[f"T_{name}"] = res.parallel_time
            row[f"slowdown_{name}"] = res.parallel_time / baseline[name]["T"]
            row[f"ckpt_time_{name}"] = res.sim.checkpoint_time
            row[f"recovery_time_{name}"] = res.sim.recovery_time
        checkpoint_rows.append(row)

    best = {
        name: min(checkpoint_rows, key=lambda r: r[f"T_{name}"])["factor"]
        for name in ("cannon", "gk")
    }

    return ResilienceReport(
        p=p,
        n=n,
        machine=machine,
        crash_rate=crash_rate,
        scheduler=scheduler,
        baseline=baseline,
        fault_rows=tuple(fault_rows),
        checkpoint_rows=tuple(checkpoint_rows),
        young=young,
        best=best,
    )


def format_text(report: ResilienceReport) -> str:
    from repro.experiments.asciiplot import ascii_plot

    fault_plot = ascii_plot(
        {
            "GK": [(r["drop_rate"], r["E_gk"]) for r in report.fault_rows],
            "Cannon": [(r["drop_rate"], r["E_cannon"]) for r in report.fault_rows],
        },
        x_label="drop rate",
        y_label="efficiency",
        y_range=(0.0, 1.0),
    )
    ckpt_plot = ascii_plot(
        {
            "GK": [(r["factor"], r["slowdown_gk"]) for r in report.checkpoint_rows],
            "Cannon": [(r["factor"], r["slowdown_cannon"]) for r in report.checkpoint_rows],
        },
        x_label="interval / Young optimum",
        y_label="slowdown",
    )
    lines = [
        f"resilience: Cannon vs GK at p={report.p}, n={report.n} on the simulated CM-5 "
        f"(ts={report.machine.ts:.2f}, tw={report.machine.tw:.3f})",
        "",
        "fault-free baseline: "
        + ", ".join(
            f"{name} T_p={v['T']:.0f} E={v['E']:.3f}"
            for name, v in sorted(report.baseline.items())
        ),
        "",
        "-- efficiency vs per-message drop rate (retransmit on ack timeout) --",
        format_table(list(report.fault_rows)),
        "",
        fault_plot,
        "",
        f"-- checkpoint-interval sweep ({report.crash_rate:g} expected crashes/rank) --",
        format_table(
            [
                {
                    "factor": r["factor"],
                    "T_cannon": r["T_cannon"],
                    "slow_cannon": r["slowdown_cannon"],
                    "T_gk": r["T_gk"],
                    "slow_gk": r["slowdown_gk"],
                }
                for r in report.checkpoint_rows
            ]
        ),
        "",
        ckpt_plot,
        "",
        "Young's optimal interval: "
        + ", ".join(f"{name} ~ {v:.0f}" for name, v in sorted(report.young.items())),
        "best swept factor (x Young): "
        + ", ".join(f"{name} = {v:g}" for name, v in sorted(report.best.items())),
    ]
    return "\n".join(lines)


def to_json(report: ResilienceReport) -> dict:
    """JSON-serializable form (uploaded as a CI artifact)."""
    return {
        "experiment": "resilience",
        "p": report.p,
        "n": report.n,
        "machine": {"ts": report.machine.ts, "tw": report.machine.tw},
        "crash_rate": report.crash_rate,
        "scheduler": report.scheduler,
        "baseline": report.baseline,
        "fault_rows": list(report.fault_rows),
        "checkpoint_rows": list(report.checkpoint_rows),
        "young": report.young,
        "best": report.best,
    }
