"""Conservative discrete-event engine for SPMD programs.

Each rank runs a Python generator that yields
:mod:`~repro.simulator.request` objects.  The engine keeps one logical
clock per rank, charges the machine's modeled costs
(:class:`~repro.core.machine.MachineParams`), routes messages over a
:class:`~repro.simulator.topology.Topology`, and resumes receivers with
the transferred payloads.  Because programs are deterministic and sends
never block on the receiver, a simple round-robin "run until blocked"
schedule is confluent: the final clocks do not depend on the order ranks
are stepped in.

Timing model (Section 2 of the paper):

* ``Compute(c)`` advances the local clock by ``c``.
* ``Send`` occupies the sender for the injection time
  ``ts + tw*nwords``; the message arrives at
  ``send_start + machine.transfer_time(nwords, hops)``.
* ``Recv`` completes at ``max(local clock, arrival time)``; the gap is
  accounted as idle (receive-wait) time.
* ``SendAll`` under ``machine.all_port`` occupies the sender for the
  *maximum* individual injection time (simultaneous ports, Section 7);
  otherwise injections serialize.
* ``Barrier`` advances every clock to the global maximum.

The engine reports :class:`SimResult`: per-rank stats, the parallel time
``T_p = max_r finish_time(r)``, and derived speedup/efficiency/overhead
given the serial work ``W``.

Scheduling
----------

Because programs are deterministic and sends never block on the
receiver, the simulation is *confluent*: final clocks and payloads do
not depend on the order ranks are stepped in.  Three schedulers exploit
that freedom differently:

* ``"ready"`` (default) — event-driven.  Runnable ranks sit in a FIFO
  ready queue; a rank blocked on ``Recv`` is parked in a wakeup map
  keyed by its mailbox channel and re-enqueued only when a matching
  message is deposited, and ranks blocked on ``Barrier`` are merely
  counted.  Each rank is touched O(#requests + #wakeups) times, and
  with tracing off the hot loop allocates no trace events and formats
  no labels.  Under an active fault plan the same queue runs an exact
  loop that charges every request through the reference helpers, so
  the fault timeline matches the rescan scheduler bit for bit.
* ``"rescan"`` — the original round-robin "run until blocked" loop,
  which rescans every pending rank each pass (O(p) per pass even when
  only one rank can move).  It is retained verbatim as the reference
  implementation: the fuzz suite asserts the other schedulers produce
  bit-identical clocks, and ``benchmarks/perf_guard.py`` uses it as the
  performance baseline.
* ``"compiled"`` — trace-compiles rank-symmetric programs into a
  vectorized batch schedule (:mod:`repro.simulator.compile`) and falls
  back to ``"ready"`` when the program cannot be compiled.

``ready`` runs macro collectives through one deferred rendezvous: a
rank that posts a :class:`~repro.simulator.request.CollectiveOp` is
parked, a completed group stays parked, and when the queue runs dry
every parked group is charged at once — one vectorized call per
``(kind, group size)`` over all concurrent groups
(:mod:`repro.simulator.macro`) — before the barrier and deadlock checks.

Run configuration
-----------------

Every run option lives on one frozen :class:`SimConfig`, passed to
:class:`Engine` (or to a ``run_*`` algorithm driver, which forwards it)
when the run is built; the engine keeps no process-wide defaults, so a
run states the scheduler and collective path it asked for.

``link_contention`` mode always runs the rescan scheduler: link
reservations are granted in scheduler order, so the reference order is
part of that mode's contract.  An active ``fault_plan``
(:mod:`repro.simulator.faults`) runs on the ready queue's exact loop —
the recovery timeline is pure per-rank/per-channel arithmetic, so ready
and rescan runs are bit-identical — and always disables the macro
collective fast path; a plan whose rates are all zero still takes the
fault path but is bit-identical to running with no plan at all (the
fuzz suite pins this).  :attr:`SimResult.scheduler` records which
scheduler actually ran.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

import numpy as np

from repro.core.machine import MachineParams
# bound here only so that profilers which patch the engine's charging
# and compile entry points (perfbench/tracing.py) find every name they
# wrap; the dynamic loops charge messages through scalar arithmetic
from repro.simulator.charging import message_times  # noqa: F401
from repro.simulator.compile import CompileFallback, SymmetrySpec, compile_spmd
from repro.simulator.errors import DeadlockError, ProgramError
from repro.simulator.faults import CompiledFaults, FaultPlan
from repro.simulator.macro import run_collective
from repro.simulator.network import LinkReservations, route_path
from repro.simulator.request import (
    Barrier,
    Checkpoint,
    CollectiveOp,
    Compute,
    Recv,
    Request,
    Send,
    SendAll,
)
from repro.simulator.topology import Topology
from repro.simulator.trace import RankArrays, RankStats, Trace, TraceEvent

__all__ = [
    "RankInfo",
    "SimResult",
    "Engine",
    "run_spmd",
    "SimConfig",
    "SCHEDULERS",
    "SymmetrySpec",
]

#: Known scheduling strategies (see the module docstring).  ``"compiled"``
#: trace-compiles rank-symmetric programs into a vectorized batch
#: schedule (:mod:`repro.simulator.compile`) and transparently falls
#: back to ``"ready"`` when the program cannot be compiled.
SCHEDULERS: tuple[str, ...] = ("ready", "rescan", "compiled")


@dataclass(frozen=True)
class SimConfig:
    """The run options of one simulation.

    Frozen and picklable, so one config is built by the caller and
    reaches process-pool workers unchanged.
    """

    scheduler: str = "ready"
    """One of :data:`SCHEDULERS` (see the module docstring)."""

    macro_collectives: bool = True
    """Run collectives as :class:`CollectiveOp` macro requests.  Honored
    only when tracing, link contention, and faults are off and the ready
    or compiled scheduler runs (the reference paths stay exact);
    ``False`` times the message-level reference collectives."""

    trace: bool = False
    """Record a :class:`Trace` of every event."""

    max_trace_events: int = 1_000_000
    """Cap on recorded trace events."""

    link_contention: bool = False
    """Every message reserves its route's directed links for the
    transfer duration and conflicting transfers serialize (see
    :mod:`repro.simulator.network`); the paper's model assumes
    conflict-free patterns, and this mode lets tests verify that."""

    fault_plan: FaultPlan | None = None
    """Deterministic fault schedule; when set, the ready scheduler runs
    its exact loop (every request charged through the reference helpers)
    and macro collectives are disabled."""

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; known: {SCHEDULERS}")


@dataclass(frozen=True)
class RankInfo:
    """Immutable per-rank environment handed to each program."""

    rank: int
    nprocs: int
    topology: Topology
    machine: MachineParams

    macro_collectives: bool = False
    """Whether the engine accepts :class:`CollectiveOp` macro requests
    this run.  The collective helpers consult this to pick between one
    closed-form vectorized update and the message-level reference path;
    it is only set when tracing, link contention, and faults are off and
    the ready (or compiled) scheduler runs."""


Program = Generator[Request, Any, Any]
ProgramFactory = Callable[[RankInfo], Program]


@dataclass
class SimResult:
    """Outcome of one SPMD simulation."""

    parallel_time: float
    """``T_p``: the maximum finish time over all ranks, in basic-op units."""

    stats: list[RankStats]
    """Per-rank timing accounts."""

    returns: list[Any]
    """Each rank program's return value (its local result)."""

    trace: Trace
    """Event trace (empty unless tracing was enabled)."""

    nprocs: int = 0

    scheduler: str = "ready"
    """The scheduler that actually ran: ``"ready"``, ``"rescan"`` or
    ``"compiled"``.  It differs from the requested one when link
    contention forces ``rescan`` or a compiled request falls back to
    ``ready``."""

    # -- fault-model accounting (zero unless a FaultPlan injected something) --------

    retransmits: int = 0
    """Dropped message transmissions that had to be re-sent."""

    faults_injected: int = 0
    """Total fault events (crashes + drops) the plan injected."""

    checkpoint_time: float = 0.0
    """Time charged to periodic/explicit checkpoints, summed over ranks."""

    recovery_time: float = 0.0
    """Time charged to crash recovery (restart cost + lost work), summed
    over ranks."""

    # -- trace compilation (scheduler="compiled") ---------------------------------

    compiled: bool = False
    """True when the run was trace-compiled and replayed as a batch
    schedule; clocks, stats, and message/word counts are bit-identical
    to the ``ready`` scheduler.  ``returns`` holds every rank's return
    value when the :class:`SymmetrySpec` carries them (its ``stacked``
    program) and is all ``None`` for a timing-only replay."""

    compile_fallback: str | None = None
    """Why a ``scheduler="compiled"`` request fell back to ``ready``
    (``None`` when it compiled, or when compilation was never asked for)."""

    arrays: "RankArrays | None" = field(default=None, repr=False)
    """The run's columnar per-rank accounts; backs the ``total_*``
    aggregates with numpy reductions instead of Python-level loops over
    :attr:`stats`."""

    # -- derived metrics (Section 2) ---------------------------------------------

    def speedup(self, serial_work: float) -> float:
        """``S = W / T_p`` for the given serial work *W*."""
        if self.parallel_time <= 0:
            return float("inf") if serial_work > 0 else 0.0
        return serial_work / self.parallel_time

    def efficiency(self, serial_work: float) -> float:
        """``E = S / p``."""
        return self.speedup(serial_work) / self.nprocs

    def total_overhead(self, serial_work: float) -> float:
        """``T_o = p*T_p - W``: all non-useful time summed over processors."""
        return self.nprocs * self.parallel_time - serial_work

    @property
    def total_compute_time(self) -> float:
        if self.arrays is not None:
            return float(self.arrays.compute_time.sum())
        return sum(s.compute_time for s in self.stats)

    @property
    def total_comm_time(self) -> float:
        if self.arrays is not None:
            a = self.arrays
            return float(
                (a.send_time + a.recv_wait_time + a.barrier_wait_time).sum()
            )
        return sum(s.comm_time for s in self.stats)

    @property
    def total_messages(self) -> int:
        if self.arrays is not None:
            return int(self.arrays.messages_sent.sum())
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_words(self) -> int:
        if self.arrays is not None:
            return int(self.arrays.words_sent.sum())
        return sum(s.words_sent for s in self.stats)


class _RankState:
    """Per-rank scheduling state; clocks and accounts live in :class:`RankArrays`.

    ``clock`` and ``stats`` are views into the run's shared arrays, so
    scalar code paths (the reference scheduler, SendAll) keep their
    original shape while the macro executors and barrier releases update
    whole rank sets vectorized.
    """

    __slots__ = ("gen", "rank", "_arr", "stats", "blocked_on", "done", "retval", "barrier_epoch", "send_value")

    def __init__(self, gen: Program, rank: int, arr: RankArrays) -> None:
        self.gen = gen
        self.rank = rank
        self._arr = arr
        self.stats = arr.view(rank)
        self.blocked_on: Recv | Barrier | CollectiveOp | None = None
        self.done = False
        self.retval: Any = None
        self.barrier_epoch = 0
        self.send_value: Any = None

    @property
    def clock(self) -> float:
        return self._arr.clock[self.rank]

    @clock.setter
    def clock(self, value: float) -> None:
        self._arr.clock[self.rank] = value


class Engine:
    """Runs one SPMD program per rank to completion under the cost model."""

    def __init__(
        self,
        topology: Topology,
        machine: MachineParams,
        config: SimConfig = SimConfig(),
        *,
        symmetry: SymmetrySpec | None = None,
    ) -> None:
        self.topology = topology
        self.machine = machine
        self.config = config
        self.trace = Trace(enabled=config.trace, max_events=config.max_trace_events)
        self.links: LinkReservations | None = None
        #: rank-symmetry annotation consumed by ``scheduler="compiled"``;
        #: without one, a compiled request falls straight back to ready.
        self.symmetry = symmetry
        self._faults: CompiledFaults | None = None
        # mailboxes[(src, dst, tag)] -> FIFO of (arrival_time, payload, nwords)
        self._mail: dict[tuple[int, int, int], deque[tuple[float, Any, int]]] = {}
        # (src, dst) -> hop count, filled lazily (repeated pairs dominate)
        self._dist: dict[tuple[int, int], int] = {}
        # (kind, tag, len(group), group[0], group[-1]) -> pending entries
        # [posts, count, pos, group]; keyed on the group's ends so posting
        # never hashes a whole group, and the rare entries sharing a key
        # are told apart by full group equality
        self._pending_collectives: dict[tuple[str, int, int, int, int], list[list]] = {}
        # (kind, len(group)) -> completed post lists parked until the
        # scheduler runs dry (see _flush_collectives)
        self._completed_collectives: dict[tuple[str, int], list[list[CollectiveOp]]] = {}
        self._arr: RankArrays | None = None

    # -- public API -----------------------------------------------------------------

    def run(self, factory: ProgramFactory | Iterable[ProgramFactory]) -> SimResult:
        """Execute *factory(info)* on every rank and return the joint result.

        *factory* may be a single callable applied to every rank or a
        sequence with one callable per rank.
        """
        p = self.topology.size
        if callable(factory):
            factories = [factory] * p
        else:
            factories = list(factory)
            if len(factories) != p:
                raise ValueError(f"need {p} programs, got {len(factories)}")

        config = self.config
        scheduler = config.scheduler
        compile_fallback: str | None = None
        if scheduler == "compiled":
            compile_fallback = self._compiled_blocker()
            if compile_fallback is not None:
                scheduler = "ready"
        if config.link_contention:
            # reservation order is defined by the reference scheduler
            # (see the module docstring)
            scheduler = "rescan"
        macro_ok = (
            config.macro_collectives
            and scheduler != "rescan"  # also excludes link contention
            and not config.trace
            and config.fault_plan is None
        )
        self._faults = (
            config.fault_plan.compile(p) if config.fault_plan is not None else None
        )

        if scheduler == "compiled":
            symmetry = self.symmetry
            assert symmetry is not None  # _compiled_blocker checked

            def make_info(r: int) -> RankInfo:
                return RankInfo(
                    rank=r,
                    nprocs=p,
                    topology=self.topology,
                    machine=self.machine,
                    macro_collectives=macro_ok,
                )

            try:
                schedule = compile_spmd(
                    factories,
                    self.topology,
                    self.machine,
                    symmetry,
                    make_info=make_info,
                )
                arr = RankArrays(p)
                self._arr = arr
                program = (
                    None if symmetry.stacked is None
                    else symmetry.stacked(make_info(0))
                )
                returns = schedule.replay(arr, self.topology, self.machine, program)
            except CompileFallback as exc:
                # probe generators were consumed, but factories are
                # re-invoked fresh below — recording left no other state
                compile_fallback = str(exc)
                scheduler = "ready"
            else:
                return SimResult(
                    parallel_time=float(arr.clock.max()) if p else 0.0,
                    stats=arr.snapshot(),
                    returns=[None] * p if returns is None else returns,
                    trace=self.trace,
                    nprocs=p,
                    scheduler=scheduler,
                    compiled=True,
                    arrays=arr,
                )

        arr = RankArrays(p)
        self._arr = arr
        states = [
            _RankState(
                f(
                    RankInfo(
                        rank=r,
                        nprocs=p,
                        topology=self.topology,
                        machine=self.machine,
                        macro_collectives=macro_ok,
                    )
                ),
                r,
                arr,
            )
            for r, f in enumerate(factories)
        ]
        self._mail.clear()
        self._dist.clear()
        self._pending_collectives.clear()
        self._completed_collectives.clear()
        self.links = LinkReservations() if config.link_contention else None

        if scheduler == "rescan":
            self._run_rescan(states)
        elif self._faults is not None:
            self._run_ready_exact(states)
        else:
            self._run_ready(states)

        t_p = float(arr.clock.max()) if p else 0.0
        result = SimResult(
            parallel_time=t_p,
            stats=arr.snapshot(),
            returns=[s.retval for s in states],
            trace=self.trace,
            nprocs=p,
            scheduler=scheduler,
            compile_fallback=compile_fallback,
            arrays=arr,
        )
        f = self._faults
        if f is not None:
            result.retransmits = f.retransmits
            result.faults_injected = f.faults_injected
            result.checkpoint_time = f.checkpoint_time
            result.recovery_time = f.recovery_time
        return result

    # -- scheduling internals ---------------------------------------------------------

    def _compiled_blocker(self) -> str | None:
        """Why ``scheduler="compiled"`` must fall back before even probing."""
        if self.symmetry is None:
            return (
                "no SymmetrySpec provided (driver does not declare rank "
                "symmetry, or cannot carry the requested product)"
            )
        if self.config.trace:
            return "tracing enabled"
        if self.config.link_contention:
            return "link contention enabled"
        if self.config.fault_plan is not None:
            return "active fault plan"
        return None

    def _run_rescan(self, states: list[_RankState]) -> None:
        """The seed round-robin scheduler: rescan every pending rank each pass.

        Kept verbatim as the reference implementation; the fuzz suite
        asserts the ready-queue scheduler matches it bit-for-bit.
        """
        pending = set(range(len(states)))
        while pending:
            progressed = False
            for r in sorted(pending):
                if self._step_until_blocked(states, r):
                    progressed = True
                if states[r].done:
                    pending.discard(r)
            if pending and self._try_release_barrier(states):
                progressed = True
            if pending and not progressed:
                raise self._deadlock(states)

    def _run_ready(self, states: list[_RankState]) -> None:
        """Event-driven fast path: ready queue + per-channel wakeup map.

        A rank leaves the ready queue only by finishing or blocking; a
        rank blocked on ``Recv`` is parked under its mailbox key and
        re-enqueued by the send that feeds it, and ranks blocked on
        ``Barrier`` are only counted.  The arithmetic matches the rescan
        scheduler expression-for-expression so clocks are bit-identical.
        Cost-model parameters, mailboxes, and hop distances are hoisted
        into locals, and with tracing off no :class:`TraceEvent` (nor its
        label string) is ever constructed.
        """
        machine = self.machine
        ts, tw, th = machine.ts, machine.tw, machine.th
        cut_through = machine.routing == "ct"
        topo = self.topology
        size = topo.size
        distance = topo.distance
        dist = self._dist
        mail = self._mail
        tracing = self.trace.enabled
        record = self.trace.record

        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        clk_arr = arr.clock
        comp_arr = arr.compute_time
        sendt_arr = arr.send_time
        rwait_arr = arr.recv_wait_time
        msgs_arr = arr.messages_sent
        words_arr = arr.words_sent

        ready = deque(range(len(states)))
        waiting: dict[tuple[int, int, int], int] = {}  # mailbox key -> parked rank
        barrier_blocked = 0
        active = len(states)

        while active:
            while ready:
                r = ready.popleft()
                st = states[r]
                clock = clk_arr.item(r)
                value = None
                blocked = st.blocked_on
                if blocked is not None:
                    if blocked.__class__ is CollectiveOp:
                        # resumed by a completed macro collective: the
                        # executor already advanced clock and accounts
                        value = st.send_value
                        st.send_value = None
                        st.blocked_on = None
                    else:
                        # woken by a deposit on this channel: complete the Recv
                        arrival, value, nwords = mail[(blocked.src, r, blocked.tag)].popleft()
                        if tracing:
                            end = arrival if arrival > clock else clock
                            record(TraceEvent(r, clock, end, "recv",
                                              f"<-{blocked.src} {nwords}w", tag=blocked.tag))
                        if arrival > clock:
                            rwait_arr[r] += arrival - clock
                            clock = arrival
                        st.blocked_on = None
                gen_send = st.gen.send
                while True:
                    try:
                        req = gen_send(value)
                    except StopIteration as stop:
                        st.done = True
                        st.retval = stop.value
                        active -= 1
                        break
                    value = None
                    cls = req.__class__
                    if cls is Compute:
                        cost = req.cost
                        if tracing:
                            record(TraceEvent(r, clock, clock + cost, "compute", req.label))
                        comp_arr[r] += cost
                        clock += cost
                    elif cls is Recv:
                        key = (req.src, r, req.tag)
                        q = mail.get(key)
                        if q:
                            arrival, value, nwords = q.popleft()
                            if tracing:
                                end = arrival if arrival > clock else clock
                                record(TraceEvent(r, clock, end, "recv",
                                                  f"<-{req.src} {nwords}w", tag=req.tag))
                            if arrival > clock:
                                rwait_arr[r] += arrival - clock
                                clock = arrival
                        else:
                            st.blocked_on = req
                            waiting[key] = r
                            break
                    elif cls is Send:
                        dst = req.dst
                        if not 0 <= dst < size:
                            raise ProgramError(f"rank {r} sent to invalid rank {dst}")
                        pair = (r, dst)
                        hops = dist.get(pair)
                        if hops is None:
                            hops = dist[pair] = max(distance(r, dst), 1)
                        nwords = req.nwords
                        # same expressions as MachineParams.transfer_time /
                        # sender_busy_time, hoisted out of the method calls
                        if cut_through:
                            duration = ts + tw * nwords + th * hops
                        else:
                            duration = ts + (tw * nwords + th) * hops
                        busy = ts + tw * nwords
                        arrival = clock + duration
                        key = (r, dst, req.tag)
                        q = mail.get(key)
                        if q is None:
                            q = mail[key] = deque()
                        q.append((arrival, req.data, nwords))
                        msgs_arr[r] += 1
                        words_arr[r] += nwords
                        sendt_arr[r] += busy
                        if tracing:
                            record(TraceEvent(r, clock, clock + busy, "send",
                                              f"->{dst} {nwords}w", tag=req.tag))
                        clock = clock + busy
                        woken = waiting.pop(key, None)
                        if woken is not None:
                            ready.append(woken)
                    elif cls is SendAll:
                        st.clock = clock
                        self._do_send_all(st, r, req)
                        clock = clk_arr.item(r)
                        for m in req.messages:
                            woken = waiting.pop((r, m.dst, m.tag), None)
                            if woken is not None:
                                ready.append(woken)
                    elif cls is Barrier:
                        st.blocked_on = req
                        barrier_blocked += 1
                        break
                    elif cls is Checkpoint:
                        # free without a fault plan (a plan runs
                        # _run_ready_exact instead)
                        pass
                    elif cls is CollectiveOp:
                        st.blocked_on = req
                        self._post_collective(r, req, size)
                        break
                    else:
                        raise ProgramError(f"rank {r} yielded unsupported request {req!r}")
                clk_arr[r] = clock
                st.send_value = None
            if self._completed_collectives:
                ready.extend(self._flush_collectives(states))
                continue
            if not active:
                return
            if barrier_blocked == active:
                self._release_barrier_ready(states)
                barrier_blocked = 0
                ready.extend(r for r, s in enumerate(states) if not s.done)
            else:
                raise self._deadlock(states)

    def _run_ready_exact(self, states: list[_RankState]) -> None:
        """The ready queue with reference charging, for fault plans.

        Each dequeued rank runs until it blocks, charging every request
        through the same scalar helpers as the rescan scheduler
        (``_dispatch``/``_do_send``/``_complete_recv``), so the fault
        timeline — crash windows, degraded links, drop/retransmit
        streams — is bit-identical to the reference while each rank is
        touched only when it can move instead of once per O(p) pass.
        """
        ready = deque(range(len(states)))
        waiting: dict[tuple[int, int, int], int] = {}  # mailbox key -> parked rank
        barrier_blocked = 0
        active = len(states)
        while active:
            while ready:
                r = ready.popleft()
                st = states[r]
                value = None
                blocked = st.blocked_on
                if blocked is not None:
                    # only Recv parks with a pending wake in this loop
                    value = self._complete_recv(st, blocked, r)
                    st.blocked_on = None
                gen_send = st.gen.send
                while True:
                    try:
                        req = gen_send(value)
                    except StopIteration as stop:
                        st.done = True
                        st.retval = stop.value
                        active -= 1
                        break
                    value = None
                    self._dispatch(states, st, r, req)
                    blocked = st.blocked_on
                    if blocked is None:
                        cls = req.__class__
                        if cls is Send:
                            woken = waiting.pop((r, req.dst, req.tag), None)
                            if woken is not None:
                                ready.append(woken)
                        elif cls is SendAll:
                            for m in req.messages:
                                woken = waiting.pop((r, m.dst, m.tag), None)
                                if woken is not None:
                                    ready.append(woken)
                        continue
                    if blocked.__class__ is Barrier:
                        barrier_blocked += 1
                        break
                    if self._recv_ready(blocked, r):
                        value = self._complete_recv(st, blocked, r)
                        st.blocked_on = None
                        continue
                    waiting[(blocked.src, r, blocked.tag)] = r
                    break
            if not active:
                return
            if barrier_blocked == active and self._try_release_barrier(states):
                barrier_blocked = 0
                ready.extend(r for r, s in enumerate(states) if not s.done)
            else:
                raise self._deadlock(states)

    def _deadlock(self, states: list[_RankState]) -> DeadlockError:
        """The error for a run where no unfinished rank can move."""
        return DeadlockError(
            {
                r: repr(s.blocked_on)
                for r, s in enumerate(states)
                if not s.done and s.blocked_on is not None
            },
            fault_history=self._faults.history if self._faults is not None else None,
        )

    def _post_collective(self, r: int, req: CollectiveOp, size: int) -> None:
        """Park rank *r* on its macro collective; once every member of the
        group has posted, queue the post list for :meth:`_flush_collectives`.

        Pending collectives are keyed by ``(kind, tag, len(group),
        group[0], group[-1])``, so finding a rank's entry costs O(1)
        expected time however many groups of a phase are in flight; a key
        shared by different groups is resolved by full group equality
        (which short-circuits on the shared list object drivers hand
        every member).
        """
        group = req.group
        g = len(group)
        if not g:
            raise ProgramError(f"rank {r} posted a collective for a group it is not in")
        key = (req.kind, req.tag, g, group[0], group[-1])
        bucket = self._pending_collectives.get(key)
        entry = None
        if bucket is not None:
            for e in bucket:
                eg = e[3]
                if eg is group or eg == group:
                    entry = e
                    break
        if entry is None:
            pos = {rank: i for i, rank in enumerate(group)}
            if len(pos) != g:
                raise ProgramError(f"collective group has duplicate ranks: {list(group)!r}")
            for member in group:
                if not 0 <= member < size:
                    raise ProgramError(f"collective group member {member} outside [0, {size})")
            entry = [[None] * g, 0, pos, group]
            if bucket is None:
                bucket = self._pending_collectives[key] = []
            bucket.append(entry)
        posts = entry[0]
        i = entry[2].get(r)
        if i is None:
            raise ProgramError(f"rank {r} posted a collective for a group it is not in")
        if posts[i] is not None:
            raise ProgramError(
                f"rank {r} posted {req.kind!r} twice for tag {req.tag} on the same group"
            )
        posts[i] = req
        entry[1] += 1
        if entry[1] == g:
            bucket.remove(entry)
            if not bucket:
                del self._pending_collectives[key]
            self._completed_collectives.setdefault((req.kind, g), []).append(posts)

    def _flush_collectives(self, states: list[_RankState]) -> list[int]:
        """Execute every completed macro collective; return the members to resume.

        The ready scheduler calls this when it runs out of runnable
        ranks, before their barrier and deadlock checks.  Parking a
        completed group until then is exact — nothing but its own
        collective writes a parked rank's clock or accounts — and lets
        all concurrent groups of one ``(kind, g)`` (the r² broadcast
        groups of a GK stage, say) share one vectorized
        :func:`~repro.simulator.macro.run_collective` call.  Each member's
        result is left in its ``send_value``.
        """
        completed = self._completed_collectives
        self._completed_collectives = {}
        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        woken: list[int] = []
        for groups in completed.values():
            results = run_collective(groups, arr, self.topology, self.machine)
            for posts, returns in zip(groups, results):
                for member, value in zip(posts[0].group, returns):
                    states[member].send_value = value
                    woken.append(member)
        return woken

    def _release_barrier_ready(self, states: list[_RankState]) -> None:
        """Vectorized barrier release for the ready scheduler (tracing falls
        back to the reference release, which records per-rank events)."""
        if self.trace.enabled:
            self._try_release_barrier(states)
            return
        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        alive = np.fromiter((not s.done for s in states), dtype=bool, count=len(states))
        if not alive.any():
            return
        clk = arr.clock
        t = clk[alive].max()
        gap = t - clk[alive]
        arr.barrier_wait_time[alive] += np.where(gap > 0.0, gap, 0.0)
        clk[alive] = t
        for r in np.flatnonzero(alive):
            s = states[r]
            s.blocked_on = None
            s.send_value = None

    def _step_until_blocked(self, states: list[_RankState], r: int) -> bool:
        """Advance rank *r* until it finishes or blocks; return True on any progress."""
        st = states[r]
        if st.done:
            return False
        progressed = False
        while True:
            if st.blocked_on is not None:
                req = st.blocked_on
                if isinstance(req, Barrier):
                    return progressed  # engine-level release
                assert isinstance(req, Recv)
                if not self._recv_ready(req, r):
                    return progressed
                st.send_value = self._complete_recv(st, req, r)
                st.blocked_on = None
                progressed = True
            try:
                req = st.gen.send(st.send_value)
            except StopIteration as stop:
                st.done = True
                st.retval = stop.value
                return True
            st.send_value = None
            progressed = True
            self._dispatch(states, st, r, req)
            if st.blocked_on is not None and (
                isinstance(st.blocked_on, Barrier) or not self._recv_ready(st.blocked_on, r)
            ):
                return progressed

    def _dispatch(self, states: list[_RankState], st: _RankState, r: int, req: Request) -> None:
        f = self._faults
        if isinstance(req, Compute):
            start = st.clock
            cost = req.cost
            if f is not None:
                cost = f.scaled_compute(r, cost)
            st.clock += cost
            st.stats.compute_time += cost
            if self.trace.enabled:
                self.trace.record(TraceEvent(r, start, st.clock, "compute", req.label))
            if f is not None:
                st.clock = f.advance(r, st.clock)
        elif isinstance(req, Send):
            self._do_send(st, r, req, start_at=st.clock, advance=True)
        elif isinstance(req, SendAll):
            self._do_send_all(st, r, req)
        elif isinstance(req, Recv):
            st.blocked_on = req
        elif isinstance(req, Barrier):
            st.blocked_on = req
        elif isinstance(req, Checkpoint):
            if f is not None:
                start = st.clock
                st.clock = f.force_checkpoint(r, st.clock)
                if self.trace.enabled:
                    self.trace.record(
                        TraceEvent(r, start, st.clock, "checkpoint", req.label)
                    )
        elif isinstance(req, CollectiveOp):
            raise ProgramError(
                f"rank {r} posted macro collective {req.kind!r} under the reference "
                "charging path; CollectiveOp requires a macro-capable run (programs "
                "should consult RankInfo.macro_collectives)"
            )
        else:
            raise ProgramError(f"rank {r} yielded unsupported request {req!r}")

    def _do_send(self, st: _RankState, r: int, req: Send, *, start_at: float, advance: bool) -> float:
        """Inject one message; return the sender-busy duration (incl. link stall)."""
        if not 0 <= req.dst < self.topology.size:
            raise ProgramError(f"rank {r} sent to invalid rank {req.dst}")
        hops = self.topology.distance(r, req.dst)
        duration = self.machine.transfer_time(req.nwords, hops)
        f = self._faults
        fault_delay = 0.0
        if f is not None:
            duration = f.degraded_duration(r, req.dst, duration)
            delayed = f.on_send(
                r, req.dst, req.tag,
                self.machine.sender_busy_time(req.nwords), st.stats, start_at,
            )
            fault_delay = delayed - start_at
            start_at = delayed
        stall = 0.0
        if self.links is not None and r != req.dst:
            path = route_path(self.topology, r, req.dst)
            links = list(zip(path, path[1:]))
            start = self.links.earliest_start(links, start_at, duration)
            self.links.reserve(links, start, duration)
            stall = start - start_at
        busy = stall + self.machine.sender_busy_time(req.nwords)
        arrival = start_at + stall + duration
        self._mail.setdefault((r, req.dst, req.tag), deque()).append(
            (arrival, req.data, req.nwords)
        )
        st.stats.messages_sent += 1
        st.stats.words_sent += req.nwords
        if advance:
            st.stats.send_time += busy
            if self.trace.enabled:
                self.trace.record(
                    TraceEvent(
                        r, start_at, start_at + busy, "send",
                        f"->{req.dst} {req.nwords}w", tag=req.tag,
                    )
                )
            st.clock = start_at + busy
            if f is not None:
                st.clock = f.advance(r, st.clock)
        # callers that aggregate (all-port SendAll) need retransmit delay
        # included in the per-port occupation; exact `busy` when no plan
        return busy if f is None else fault_delay + busy

    def _do_send_all(self, st: _RankState, r: int, req: SendAll) -> None:
        if not req.messages:
            return
        start = st.clock
        if self.machine.all_port:
            # all ports drive simultaneously; sender busy for the slowest port
            busy = 0.0
            for m in req.messages:
                busy = max(busy, self._do_send(st, r, m, start_at=start, advance=False))
            st.stats.send_time += busy
            st.clock = start + busy
            if self.trace.enabled:
                self.trace.record(
                    TraceEvent(r, start, st.clock, "send", f"all-port x{len(req.messages)}")
                )
            if self._faults is not None:
                st.clock = self._faults.advance(r, st.clock)
        else:
            for m in req.messages:
                self._do_send(st, r, m, start_at=st.clock, advance=True)

    def _recv_ready(self, req: Recv, r: int) -> bool:
        q = self._mail.get((req.src, r, req.tag))
        return bool(q)

    def _complete_recv(self, st: _RankState, req: Recv, r: int) -> Any:
        arrival, payload, nwords = self._mail[(req.src, r, req.tag)].popleft()
        start = st.clock
        if arrival > st.clock:
            st.stats.recv_wait_time += arrival - st.clock
            st.clock = arrival
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(r, start, st.clock, "recv", f"<-{req.src} {nwords}w", tag=req.tag)
            )
        if self._faults is not None:
            st.clock = self._faults.advance(r, st.clock)
        return payload

    def _try_release_barrier(self, states: list[_RankState]) -> bool:
        """Release a barrier once every unfinished rank is waiting on it."""
        waiting = [s for s in states if not s.done]
        if not waiting or not all(isinstance(s.blocked_on, Barrier) for s in waiting):
            return False
        t = max(s.clock for s in waiting)
        f = self._faults
        for s in waiting:
            if t > s.clock:
                s.stats.barrier_wait_time += t - s.clock
            if self.trace.enabled:
                self.trace.record(TraceEvent(s.stats.rank, s.clock, t, "barrier"))
            s.clock = t
            if f is not None:
                s.clock = f.advance(s.stats.rank, s.clock)
            s.blocked_on = None
            s.send_value = None
        return True


def run_spmd(
    topology: Topology,
    machine: MachineParams,
    factory: ProgramFactory | Iterable[ProgramFactory],
    config: SimConfig = SimConfig(),
    *,
    symmetry: SymmetrySpec | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(topology, machine, config, symmetry=symmetry).run(factory)
