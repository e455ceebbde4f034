"""The ready scheduler's run-to-run determinism.

The ready queue is a FIFO: runnable ranks are stepped in the order they
became runnable, a rank parked on ``Recv`` is re-enqueued by the send
that feeds its channel, and a barrier release re-enqueues every rank in
rank order.  Nothing about that order depends on dict or set iteration,
so a traced run must replay identically within a process and across
processes with different hash seeds — and, because the cost model is
confluent, its clocks must equal the rescan reference's.

These tests pin that where it is easiest to regress: adversarial
same-timestamp runs (zero-cost operations collapse the whole run onto
``t = 0``), a wake landing at exactly another rank's resume time, and
``PYTHONHASHSEED`` independence checked across subprocesses.

Each test runs both of the ready scheduler's loops: the fast loop, and
the exact loop that an active fault plan selects.  The null plan
``FaultPlan()`` injects nothing, so it takes the exact loop with clocks
that must still equal the reference's.
"""

import os
import subprocess
import sys

import pytest

from repro.core.machine import MachineParams
from repro.simulator.engine import Engine, SimConfig
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Barrier, Compute, Recv, Send
from repro.simulator.topology import FullyConnected, Hypercube

M = MachineParams(ts=3.0, tw=1.5)
ZERO = MachineParams(ts=0.0, tw=0.0)

#: loop name -> fault plan that selects it
LOOPS = {"fast": None, "exact": FaultPlan()}
loops = pytest.mark.parametrize("loop", sorted(LOOPS))


def _ring_program(info):
    """Every rank forwards around a ring twice with a barrier between laps."""
    right = (info.rank + 1) % info.nprocs
    left = (info.rank - 1) % info.nprocs
    for lap in range(2):
        yield Compute(float(info.rank % 3))
        yield Send(dst=right, data=(info.rank, lap), nwords=4, tag=lap)
        got = yield Recv(src=left, tag=lap)
        yield Barrier()
    return got


def _trace_fingerprint(res):
    return [
        (e.rank, e.start, e.end, e.kind, e.detail, e.tag)
        for e in res.trace.events
    ]


class TestSameTimestampBatches:
    @staticmethod
    def _zero_cost_program(info):
        """Same shape as the ring, but every operation costs exactly 0."""
        right = (info.rank + 1) % info.nprocs
        left = (info.rank - 1) % info.nprocs
        for lap in range(2):
            yield Compute(0.0)
            yield Send(dst=right, data=(info.rank, lap), nwords=0, tag=lap)
            got = yield Recv(src=left, tag=lap)
            yield Barrier()
        return got

    @loops
    def test_zero_cost_run_is_deterministic(self, loop):
        """Every event lands at t=0: queue order alone orders the trace."""
        fingerprints = set()
        for _ in range(10):
            config = SimConfig(trace=True, fault_plan=LOOPS[loop])
            res = Engine(FullyConnected(8), ZERO, config).run([self._zero_cost_program] * 8)
            fingerprints.add(tuple(_trace_fingerprint(res)))
        assert len(fingerprints) == 1

    @loops
    def test_zero_cost_run_matches_rescan(self, loop):
        progs = [self._zero_cost_program] * 8
        ready = Engine(
            FullyConnected(8), ZERO, SimConfig(scheduler="ready", fault_plan=LOOPS[loop])
        ).run(progs)
        rescan = Engine(FullyConnected(8), ZERO, SimConfig(scheduler="rescan")).run(progs)
        assert ready.parallel_time == rescan.parallel_time == 0.0
        assert ready.stats == rescan.stats
        assert ready.returns == rescan.returns

    @loops
    def test_traced_order_stable_across_runs(self, loop):
        """Identical costs on every rank: equal-time batches at every step."""
        config = SimConfig(trace=True, fault_plan=LOOPS[loop])
        fingerprints = {
            tuple(_trace_fingerprint(Engine(Hypercube(3), M, config).run([_ring_program] * 8)))
            for _ in range(5)
        }
        assert len(fingerprints) == 1


_HASHSEED_SCRIPT = """\
import hashlib
import sys

from repro.core.machine import MachineParams
from repro.simulator.engine import Engine, SimConfig
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Barrier, Compute, Recv, Send
from repro.simulator.topology import FullyConnected

# build the program table through a dict and a set, so any hidden
# dependence on hash iteration order would perturb the trace
ranks = {r for r in range(8)}
progs = {}
for r in sorted(ranks):
    def prog(info):
        right = (info.rank + 1) % info.nprocs
        left = (info.rank - 1) % info.nprocs
        for lap in range(2):
            yield Compute(float(info.rank % 3))
            yield Send(dst=right, data=(info.rank, lap), nwords=4, tag=lap)
            got = yield Recv(src=left, tag=lap)
            yield Barrier()
        return got
    progs[r] = prog

config = SimConfig(trace=True, fault_plan=FaultPlan() if sys.argv[1] == "exact" else None)
machine = MachineParams(ts=3.0, tw=1.5)
res = Engine(FullyConnected(8), machine, config).run([progs[r] for r in sorted(progs)])
lines = "".join(
    f"{e.rank},{e.start!r},{e.end!r},{e.kind},{e.detail},{e.tag}\\n"
    for e in res.trace.events
)
print(hashlib.sha256(lines.encode()).hexdigest())
print(repr(res.parallel_time))
"""


@loops
def test_event_order_independent_of_hash_seed(loop):
    """The same run under different PYTHONHASHSEEDs emits the same trace.

    Dict/set iteration order changes with the hash seed; the ready
    queue's FIFO order must not.
    """
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT, loop],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@loops
def test_simultaneous_wake_and_resume(loop):
    """A rank woken at exactly another rank's resume time: stable order.

    Rank 1 computes for exactly the message flight time, so its wake
    and rank 0's resume land at the same instant; the ready queue must
    agree with the reference on the resulting clocks.
    """
    flight = M.ts + 4 * M.tw

    def p0(info):
        yield Send(dst=1, data="x", nwords=4)
        yield Compute(0.0)
        yield Send(dst=1, data="y", nwords=4)

    def p1(info):
        yield Compute(flight)
        a = yield Recv(src=0)
        b = yield Recv(src=0)
        return (a, b)

    fast = Engine(
        FullyConnected(2), M, SimConfig(scheduler="ready", fault_plan=LOOPS[loop])
    ).run([p0, p1])
    ref = Engine(FullyConnected(2), M, SimConfig(scheduler="rescan")).run([p0, p1])
    assert fast.parallel_time == ref.parallel_time
    assert fast.stats == ref.stats
    assert fast.returns == ref.returns
