"""Overhead decomposition from simulation traces.

The isoefficiency methodology works because ``T_o`` "succinctly captures
the impact of communication overheads, concurrency, serial bottlenecks,
load imbalance, etc. in a single expression" (Section 1).  This module
goes the other way: it *decomposes* a simulated run's total overhead
back into those constituents, so the analytic overhead terms can be
audited against what actually happened on the simulated machine.

Identity enforced (and tested): with ``W`` the charged useful work,

    T_o  =  p * T_p - W  =  send time + receive-wait time
            + barrier-wait time + end-skew idle time + extra arithmetic

where *end-skew* is the time ranks sit finished while the slowest rank
completes, and *extra arithmetic* is charged work beyond the serial
``n^3`` (e.g. the reduction adds of the DNS/GK stage 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.engine import SimResult

__all__ = ["OverheadBreakdown", "decompose_overhead", "communication_by_kind", "communication_by_tag"]


@dataclass(frozen=True)
class OverheadBreakdown:
    """Where a simulated run's total overhead went (basic-op units)."""

    work: float
    """Useful serial work ``W`` this run was accounted against."""

    parallel_time: float
    nprocs: int
    send_time: float
    """Processor time spent injecting messages (the ``ts + tw*m`` charges)."""

    recv_wait_time: float
    """Idle time blocked on not-yet-arrived messages."""

    barrier_wait_time: float
    end_skew_time: float
    """Sum over ranks of ``T_p - finish_time(rank)``: load imbalance at the end."""

    extra_compute_time: float
    """Charged arithmetic beyond ``W`` (e.g. stage-3 reduction adds)."""

    @property
    def total_overhead(self) -> float:
        """``T_o = p*T_p - W``."""
        return self.nprocs * self.parallel_time - self.work

    @property
    def accounted(self) -> float:
        """Sum of the decomposed constituents (must equal ``total_overhead``)."""
        return (
            self.send_time
            + self.recv_wait_time
            + self.barrier_wait_time
            + self.end_skew_time
            + self.extra_compute_time
        )

    @property
    def communication_fraction(self) -> float:
        """Share of the overhead that is message injection + message wait."""
        to = self.total_overhead
        if to <= 0:
            return 0.0
        return (self.send_time + self.recv_wait_time) / to

    def as_dict(self) -> dict[str, float]:
        return {
            "work": self.work,
            "parallel_time": self.parallel_time,
            "total_overhead": self.total_overhead,
            "send_time": self.send_time,
            "recv_wait_time": self.recv_wait_time,
            "barrier_wait_time": self.barrier_wait_time,
            "end_skew_time": self.end_skew_time,
            "extra_compute_time": self.extra_compute_time,
        }


def decompose_overhead(sim: SimResult, work: float) -> OverheadBreakdown:
    """Split ``T_o = p*T_p - W`` of a simulated run into its constituents."""
    if work < 0:
        raise ValueError("work must be non-negative")
    t_p = sim.parallel_time
    send = sum(s.send_time for s in sim.stats)
    recv_wait = sum(s.recv_wait_time for s in sim.stats)
    barrier = sum(s.barrier_wait_time for s in sim.stats)
    end_skew = sum(t_p - s.finish_time for s in sim.stats)
    extra = sim.total_compute_time - work
    return OverheadBreakdown(
        work=work,
        parallel_time=t_p,
        nprocs=sim.nprocs,
        send_time=send,
        recv_wait_time=recv_wait,
        barrier_wait_time=barrier,
        end_skew_time=end_skew,
        extra_compute_time=extra,
    )


def communication_by_kind(sim: SimResult) -> dict[str, float]:
    """Total traced time per event kind (requires the run to have tracing on).

    Returns ``{kind: total duration}`` over all ranks for the kinds
    ``compute`` / ``send`` / ``recv`` / ``barrier``.  Raises if the trace
    is empty but the run clearly did work (tracing was off).
    """
    if not sim.trace.events:
        if any(s.busy_time > 0 for s in sim.stats):
            raise ValueError("run has no trace; pass config=SimConfig(trace=True) to the driver")
        return {}
    out: dict[str, float] = {}
    for ev in sim.trace.events:
        out[ev.kind] = out.get(ev.kind, 0.0) + (ev.end - ev.start)
    return out


def communication_by_tag(sim: SimResult) -> dict[int, float]:
    """Traced send + receive-wait time grouped by message tag.

    Algorithms give each communication phase its own tag (e.g. the GK
    algorithm uses 10/20 for the A route/broadcast, 30/40 for B, 50 for
    the reduction), so this attributes communication time to algorithm
    stages — the per-term structure the Section 4 expressions assert.
    Requires tracing (``config=SimConfig(trace=True)`` on the driver).
    """
    if not sim.trace.events:
        if any(s.busy_time > 0 for s in sim.stats):
            raise ValueError("run has no trace; pass config=SimConfig(trace=True) to the driver")
        return {}
    out: dict[int, float] = {}
    for ev in sim.trace.events:
        if ev.kind in ("send", "recv"):
            out[ev.tag] = out.get(ev.tag, 0.0) + (ev.end - ev.start)
    return out
