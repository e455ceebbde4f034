"""Deterministic, seeded fault injection and recovery modeling.

The paper's machine (and the rest of this simulator) is failure-free.
This module adds the ingredients real large machines force on you —
rank crashes, stragglers, degraded links, dropped messages — as a
*deterministic, replayable* overlay on the cost model:

* :class:`FaultPlan` — a frozen description of what may go wrong.  All
  randomness flows through one seeded RNG stream family (:func:`_stream`,
  the single sanctioned ``default_rng`` construction site — analysis
  rule ENG005 enforces this), keyed by ``(seed, domain, ...)`` so the
  schedule is a pure function of the plan, never of scheduler order or
  process interleaving.
* :class:`CompiledFaults` — the per-run mutable state the engine
  consults: per-rank crash schedules, straggler/degradation factors,
  per-channel message sequence counters, and the run-level totals that
  surface on :class:`~repro.simulator.engine.SimResult`
  (``retransmits``, ``faults_injected``, ``checkpoint_time``,
  ``recovery_time``).

Fault semantics (all charged in modeled basic-op units):

* **Message drops** — each send is dropped independently with
  probability ``drop_rate``.  The sender detects a drop after an
  acknowledgment ``timeout`` (doubling by ``backoff`` each failure) and
  retransmits; the failed injections occupy the sender and the waits
  delay the message.  More than ``max_retries`` consecutive drops raise
  :class:`~repro.simulator.errors.UnrecoverableFaultError`.
* **Rank crashes** — scheduled explicitly (``crash_times``) and/or as a
  per-rank Poisson process with mean ``crash_rate`` crashes over
  ``[0, horizon]``.  A crash at clock ``t`` rolls the rank back to its
  last checkpoint: the engine charges ``recovery_cost`` plus the lost
  work since that checkpoint and the rank resumes.  Without a checkpoint
  to roll back to the crash is fatal
  (:class:`~repro.simulator.errors.RankCrashError`).
* **Checkpoints** — with ``checkpoint_interval`` set, every rank pays
  ``checkpoint_cost`` each time its clock crosses the next interval
  boundary (the classic periodic-checkpoint model; intervals count
  elapsed local clock, so idle time is conservatively included).
  Programs may also yield an explicit
  :class:`~repro.simulator.request.Checkpoint`.
* **Stragglers / degraded links** — each rank is independently marked a
  straggler (compute scaled by ``straggler_factor``) with probability
  ``straggler_rate``, and degraded (transfers touching it scaled by
  ``degrade_factor``) with probability ``degrade_rate``.

A zero-rate plan is *exactly* free: every hook returns its input
unchanged (no float is re-derived), so running with
``FaultPlan()`` is bit-identical to running with no plan at all — the
fuzz suite pins this against both schedulers and the macro collective
fast path.  An active plan (``SimConfig(fault_plan=...)``) charges every
request through the engine's reference helpers and disables macro
collectives, like ``link_contention`` does, because the recovery
timeline is part of the deterministic contract.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.simulator.errors import RankCrashError, UnrecoverableFaultError
from repro.simulator.network import retransmit_backoff_delay

__all__ = ["FaultPlan", "CompiledFaults"]

#: Domain separators for the plan's RNG stream family, so crash times,
#: straggler draws, degradation draws, and per-message drop draws are
#: independent streams even under one seed.
_CRASH, _STRAGGLE, _DEGRADE, _DROP = 1, 2, 3, 4

#: Fault events kept verbatim in the history (later ones are counted).
_HISTORY_CAP = 64


def _stream(*key: int) -> np.random.Generator:
    """The single sanctioned RNG construction site of the fault subsystem.

    Every random draw behind a :class:`FaultPlan` goes through a
    generator built here, keyed on ``(seed, domain, ...)``.  Analysis
    rule ENG005 flags any other RNG construction under
    ``repro/simulator/`` so fault schedules stay a pure function of the
    plan.
    """
    return np.random.default_rng(key)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _finite(v: Any) -> bool:
    """True when *v* is a real, finite number (bools excluded).

    NaN fails every range comparison anyway, but checking explicitly
    lets the error message say "finite" instead of implying the value
    was out of range.
    """
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of faults for one simulation.

    Frozen and hashable-by-value, so a plan can key result caches the
    same way :class:`~repro.core.machine.MachineParams` does.  All fields
    default to "no faults"; ``FaultPlan()`` is the null plan.
    """

    seed: int = 0
    """Seed of the plan's private RNG stream family."""

    horizon: float = 0.0
    """Time window ``[0, horizon]`` (basic-op units) over which random
    crashes are scheduled; typically the fault-free ``T_p``."""

    crash_rate: float = 0.0
    """Expected number of random crashes *per rank* over the horizon
    (Poisson-distributed count, uniform times)."""

    crash_times: tuple[tuple[int, float], ...] = ()
    """Explicitly scheduled ``(rank, time)`` crashes, on top of the
    random ones.  Times must fall in ``(0, horizon]``."""

    straggler_rate: float = 0.0
    """Probability each rank is a straggler."""

    straggler_factor: float = 1.0
    """Compute-time multiplier for straggler ranks (``>= 1``)."""

    degrade_rate: float = 0.0
    """Probability each rank's links are degraded."""

    degrade_factor: float = 1.0
    """Transfer-time multiplier for messages touching a degraded rank."""

    drop_rate: float = 0.0
    """Per-message drop probability (independent per attempt)."""

    timeout: float = 0.0
    """Acknowledgment timeout before a dropped message is retransmitted."""

    backoff: float = 2.0
    """Timeout multiplier per consecutive failure (exponential backoff)."""

    max_retries: int = 12
    """Consecutive drops tolerated per message before the link is
    declared dead (:class:`UnrecoverableFaultError`)."""

    checkpoint_interval: float | None = None
    """Local-clock period between periodic checkpoints (``None`` disables
    checkpointing, making crashes fatal unless the program checkpoints
    explicitly)."""

    checkpoint_cost: float = 0.0
    """Time charged per checkpoint."""

    recovery_cost: float = 0.0
    """Fixed restart cost charged per crash, on top of the lost work."""

    def __post_init__(self) -> None:
        # Every field is checked here, at construction, with a message
        # naming the field, its legal range, and an example fix — a bad
        # plan must never surface later as a cryptic RNG or arithmetic
        # error deep inside a multi-hour campaign (same contract as
        # MachineParams validation).
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed keys the plan's RNG stream family and must be an int, "
            f"got {self.seed!r} ({type(self.seed).__name__}); e.g. seed=0",
        )
        for name in ("straggler_rate", "degrade_rate", "drop_rate"):
            v = getattr(self, name)
            _require(
                _finite(v) and 0.0 <= v <= 1.0,
                f"{name} is a probability and must be a finite number in [0, 1], "
                f"got {v!r}; e.g. {name}=0.05",
            )
        _require(
            _finite(self.crash_rate) and self.crash_rate >= 0.0,
            f"crash_rate must be finite and >= 0 (expected crashes per rank over "
            f"the horizon), got {self.crash_rate!r}; e.g. crash_rate=0.5",
        )
        _require(
            _finite(self.horizon) and self.horizon >= 0.0,
            f"horizon must be a finite time >= 0 in basic-op units, got "
            f"{self.horizon!r}; e.g. horizon=50_000.0 (roughly the fault-free T_p)",
        )
        _require(
            self.crash_rate == 0.0 or self.horizon > 0.0,
            "crash_rate > 0 schedules Poisson crashes over [0, horizon]; "
            f"set horizon > 0 (got horizon={self.horizon!r}) — "
            "e.g. FaultPlan(crash_rate=0.5, horizon=50_000.0, ...)",
        )
        for entry in self.crash_times:
            _require(
                isinstance(entry, tuple) and len(entry) == 2,
                f"crash_times entries must be (rank, time) pairs, got {entry!r}; "
                "e.g. crash_times=((3, 1200.0),)",
            )
            rank, t = entry
            _require(
                isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0,
                f"crash_times ranks must be non-negative ints, got {entry!r}",
            )
            _require(
                _finite(t) and t > 0.0,
                f"crash time for rank {rank} must be > 0 (and finite), got {t!r}",
            )
            _require(
                t <= self.horizon,
                f"crash time t={t!r} for rank {rank} is beyond horizon={self.horizon!r}; "
                "crashes must fall in (0, horizon] — raise the plan's horizon",
            )
        _require(
            _finite(self.straggler_factor) and self.straggler_factor >= 1.0,
            f"straggler_factor multiplies compute time and must be a finite "
            f"number >= 1, got {self.straggler_factor!r}; e.g. straggler_factor=2.0",
        )
        _require(
            _finite(self.degrade_factor) and self.degrade_factor >= 1.0,
            f"degrade_factor multiplies transfer time and must be a finite "
            f"number >= 1, got {self.degrade_factor!r}; e.g. degrade_factor=4.0",
        )
        _require(
            _finite(self.timeout) and self.timeout >= 0.0,
            f"timeout (acknowledgment wait before a retransmission) must be a "
            f"finite time >= 0, got {self.timeout!r}; e.g. timeout=500.0",
        )
        _require(
            self.drop_rate == 0.0 or self.timeout > 0.0,
            "drop_rate > 0 needs a positive retransmission timeout; "
            f"set timeout > 0 (got timeout={self.timeout!r}) — "
            "e.g. FaultPlan(drop_rate=0.01, timeout=500.0)",
        )
        _require(
            _finite(self.backoff) and self.backoff >= 1.0,
            f"backoff multiplies the timeout per consecutive failure and must "
            f"be a finite number >= 1 (the timeout never shrinks), got "
            f"{self.backoff!r}; e.g. backoff=2.0",
        )
        _require(
            isinstance(self.max_retries, int)
            and not isinstance(self.max_retries, bool)
            and self.max_retries >= 0,
            f"max_retries must be an int >= 0 (consecutive drops tolerated per "
            f"message), got {self.max_retries!r}; e.g. max_retries=12",
        )
        if self.checkpoint_interval is not None:
            _require(
                _finite(self.checkpoint_interval) and self.checkpoint_interval > 0.0,
                f"checkpoint_interval must be a finite time > 0 "
                f"(got {self.checkpoint_interval!r}); use None to disable "
                "checkpointing, e.g. checkpoint_interval=10_000.0",
            )
        _require(
            _finite(self.checkpoint_cost) and self.checkpoint_cost >= 0.0,
            f"checkpoint_cost must be a finite time >= 0 charged per checkpoint, "
            f"got {self.checkpoint_cost!r}; e.g. checkpoint_cost=200.0",
        )
        _require(
            _finite(self.recovery_cost) and self.recovery_cost >= 0.0,
            f"recovery_cost must be a finite time >= 0 charged per crash restart, "
            f"got {self.recovery_cost!r}; e.g. recovery_cost=500.0",
        )

    @property
    def is_null(self) -> bool:
        """True when the plan can never inject a fault nor charge a cost."""
        return (
            self.crash_rate == 0.0
            and not self.crash_times
            and self.straggler_rate == 0.0
            and self.degrade_rate == 0.0
            and self.drop_rate == 0.0
            and self.checkpoint_interval is None
        )

    # -- schedule derivation (all draws via _stream) --------------------------------

    def compile(self, nprocs: int) -> "CompiledFaults":
        """Materialize the per-rank fault schedule for a *nprocs*-rank run."""
        for rank, t in self.crash_times:
            if rank >= nprocs:
                raise ValueError(
                    f"crash_times schedules a crash for rank {rank} (t={t!r}) but "
                    f"the run has only {nprocs} ranks"
                )
        return CompiledFaults(self, nprocs)

    def drops_for(self, src: int, dst: int, tag: int, seq: int) -> int:
        """Consecutive drops suffered by message *seq* on channel ``(src, dst, tag)``.

        A pure function of the plan and the message identity (never of
        send order), so fault schedules replay exactly.  Raises
        :class:`UnrecoverableFaultError` past ``max_retries``.
        """
        if self.drop_rate == 0.0:
            return 0
        g = _stream(self.seed, _DROP, src, dst, tag, seq)
        drops = 0
        while g.random() < self.drop_rate:
            drops += 1
            if drops > self.max_retries:
                raise UnrecoverableFaultError(src, dst, tag, self.max_retries)
        return drops


class CompiledFaults:
    """Per-run fault state: schedules, counters, and the engine hooks.

    Every hook is exact-identity on the no-fault path: when nothing
    fires, the value passed in is returned unchanged (no float is
    recomputed), which is what keeps a zero-rate plan bit-identical to
    running with no plan at all.
    """

    __slots__ = (
        "plan",
        "nprocs",
        "retransmits",
        "faults_injected",
        "_ckpt_time",
        "_recovery_time",
        "_crashes",
        "_straggle",
        "_degraded",
        "_any_degraded",
        "_last_ckpt",
        "_next_ckpt",
        "_has_ckpt",
        "_seq",
        "_events",
        "_overflow",
    )

    def __init__(self, plan: FaultPlan, nprocs: int) -> None:
        self.plan = plan
        self.nprocs = nprocs
        self.retransmits = 0
        self.faults_injected = 0
        # per-rank accumulators: each rank's event sequence is the same
        # under every scheduler, so per-rank partial sums are bit-exact;
        # the run totals then sum in rank order (see the properties below),
        # keeping them independent of scheduler interleaving too
        self._ckpt_time = np.zeros(nprocs, dtype=np.float64)
        self._recovery_time = np.zeros(nprocs, dtype=np.float64)

        crashes: list[deque[float]] = [deque() for _ in range(nprocs)]
        pending: list[list[float]] = [[] for _ in range(nprocs)]
        for rank, t in plan.crash_times:
            pending[rank].append(float(t))
        if plan.crash_rate > 0.0:
            for r in range(nprocs):
                g = _stream(plan.seed, _CRASH, r)
                count = int(g.poisson(plan.crash_rate))
                if count:
                    pending[r].extend(g.uniform(0.0, plan.horizon, count).tolist())
        for r in range(nprocs):
            crashes[r].extend(sorted(pending[r]))
        self._crashes = crashes

        self._straggle = np.ones(nprocs, dtype=np.float64)
        if plan.straggler_rate > 0.0 and plan.straggler_factor > 1.0:
            for r in range(nprocs):
                if _stream(plan.seed, _STRAGGLE, r).random() < plan.straggler_rate:
                    self._straggle[r] = plan.straggler_factor

        self._degraded = np.zeros(nprocs, dtype=bool)
        if plan.degrade_rate > 0.0 and plan.degrade_factor > 1.0:
            for r in range(nprocs):
                if _stream(plan.seed, _DEGRADE, r).random() < plan.degrade_rate:
                    self._degraded[r] = True
        self._any_degraded = bool(self._degraded.any())

        interval = plan.checkpoint_interval
        self._last_ckpt = np.zeros(nprocs, dtype=np.float64)
        self._next_ckpt = np.full(
            nprocs, interval if interval is not None else math.inf, dtype=np.float64
        )
        # the t=0 input state is a free checkpoint whenever periodic
        # checkpointing is on; otherwise a rank is only recoverable after
        # an explicit Checkpoint request
        self._has_ckpt = [interval is not None] * nprocs

        self._seq: dict[tuple[int, int, int], int] = {}
        self._events: list[str] = []
        self._overflow = 0

    # -- reporting ------------------------------------------------------------------

    @property
    def checkpoint_time(self) -> float:
        """Total time charged to checkpoints, summed in rank order.

        Per-rank accumulation keeps the total bit-identical across
        schedulers: float addition is not associative, so a run-level
        scalar would pick up the scheduler's event interleaving.
        """
        return float(self._ckpt_time.sum())

    @property
    def recovery_time(self) -> float:
        """Total time charged to crash recovery (restart cost + lost
        work), summed in rank order — scheduler-independent like
        :attr:`checkpoint_time`."""
        return float(self._recovery_time.sum())

    @property
    def history(self) -> list[str]:
        """Human-readable log of injected faults (capped, oldest first)."""
        out = list(self._events)
        if self._overflow:
            out.append(f"... and {self._overflow} more fault events")
        return out

    def _note(self, message: str) -> None:
        if len(self._events) < _HISTORY_CAP:
            self._events.append(message)
        else:
            self._overflow += 1

    # -- engine hooks ---------------------------------------------------------------

    def scaled_compute(self, rank: int, cost: float) -> float:
        """*cost* scaled by the rank's straggler factor (identity if 1.0)."""
        factor = self._straggle[rank]
        if factor > 1.0:
            return cost * factor
        return cost

    def degraded_duration(self, src: int, dst: int, duration: float) -> float:
        """Transfer *duration* scaled if either endpoint is degraded."""
        if self._any_degraded and (self._degraded[src] or self._degraded[dst]):
            return duration * self.plan.degrade_factor
        return duration

    def on_send(self, src: int, dst: int, tag: int, busy: float, stats: Any, start_at: float) -> float:
        """Charge dropped attempts of the next message on this channel.

        Returns the (possibly delayed) start time of the successful
        transmission; the failed injections are charged to the sender's
        ``send_time`` and the backoff waits push the start forward.
        """
        plan = self.plan
        if plan.drop_rate == 0.0:
            return start_at
        key = (src, dst, tag)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        drops = plan.drops_for(src, dst, tag, seq)
        if not drops:
            return start_at
        self.retransmits += drops
        self.faults_injected += drops
        stats.send_time += drops * busy
        self._note(f"msg {src}->{dst} tag {tag} #{seq} dropped x{drops}")
        return start_at + drops * busy + retransmit_backoff_delay(
            plan.timeout, plan.backoff, drops
        )

    def advance(self, rank: int, end: float) -> float:
        """Charge every checkpoint/crash due by clock *end*; return the new clock.

        Events are processed in time order; each charge pushes *end*
        (and the rank's checkpoint schedule) forward, which can pull
        further events into range — the loop runs until none is due.
        """
        plan = self.plan
        crashes = self._crashes[rank]
        if not crashes and self._next_ckpt[rank] > end:
            return end
        interval = plan.checkpoint_interval
        while True:
            crash_t = crashes[0] if crashes else math.inf
            ckpt_t = self._next_ckpt[rank]
            if crash_t <= ckpt_t:
                if crash_t > end:
                    return end
                crashes.popleft()
                self.faults_injected += 1
                if not self._has_ckpt[rank]:
                    raise RankCrashError(rank, crash_t)
                lost = crash_t - self._last_ckpt[rank]
                if lost < 0.0:
                    lost = 0.0
                penalty = plan.recovery_cost + lost
                end += penalty
                self._recovery_time[rank] += penalty
                # the rollback replays the lost work, so the checkpointed
                # state (and the periodic schedule) shift with the timeline
                self._last_ckpt[rank] += penalty
                if interval is not None:
                    self._next_ckpt[rank] += penalty
                self._note(
                    f"rank {rank} crashed at t={crash_t:g} "
                    f"(lost {lost:g}, recovery {plan.recovery_cost:g})"
                )
            else:
                if ckpt_t > end:
                    return end
                cost = plan.checkpoint_cost
                end += cost
                self._ckpt_time[rank] += cost
                self._last_ckpt[rank] = ckpt_t + cost
                self._next_ckpt[rank] = ckpt_t + cost + interval  # type: ignore[operator]

    def force_checkpoint(self, rank: int, clock: float) -> float:
        """An explicit :class:`~repro.simulator.request.Checkpoint`: charge
        the cost now and restart the periodic schedule from here."""
        plan = self.plan
        cost = plan.checkpoint_cost
        done = clock + cost
        self._ckpt_time[rank] += cost
        self._last_ckpt[rank] = done
        self._has_ckpt[rank] = True
        if plan.checkpoint_interval is not None:
            self._next_ckpt[rank] = done + plan.checkpoint_interval
        return done
