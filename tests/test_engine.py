"""Unit tests for the discrete-event engine semantics."""

import numpy as np
import pytest

from repro.core.machine import MachineParams
from repro.simulator.engine import Engine, SimConfig, run_spmd
from repro.simulator.errors import DeadlockError, ProgramError
from repro.simulator.request import Barrier, Compute, Recv, Send, SendAll
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D
from repro.simulator.trace import RankArrays, RankStats


def run2(machine, prog0, prog1, topo=None, **kw):
    """Run a two-rank simulation from two generator factories."""
    topo = topo or FullyConnected(2)
    return Engine(topo, machine, **kw).run([prog0, prog1])


class TestCompute:
    def test_compute_advances_clock(self, machine):
        def prog(info):
            yield Compute(100.0)
            return info.rank

        res = run_spmd(FullyConnected(1), machine, prog)
        assert res.parallel_time == 100.0
        assert res.stats[0].compute_time == 100.0
        assert res.returns == [0]

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)

    def test_parallel_time_is_max(self, machine):
        def make(cost):
            def prog(info):
                yield Compute(cost)

            return prog

        res = Engine(FullyConnected(3), machine).run([make(10), make(70), make(30)])
        assert res.parallel_time == 70.0


class TestSendRecv:
    def test_message_timing_one_hop(self, machine):
        # sender: send 5 words at t=0 -> busy until ts + tw*5 = 20
        # receiver: recv completes at arrival time 20
        def sender(info):
            yield Send(dst=1, data="x", nwords=5)

        def receiver(info):
            msg = yield Recv(src=0)
            return msg

        res = run2(machine, sender, receiver)
        assert res.returns[1] == "x"
        assert res.stats[0].send_time == 20.0
        assert res.stats[1].recv_wait_time == 20.0
        assert res.parallel_time == 20.0

    def test_recv_after_compute_no_wait(self, machine):
        def sender(info):
            yield Send(dst=1, data=1, nwords=5)  # arrives at 20

        def receiver(info):
            yield Compute(100.0)
            yield Recv(src=0)

        res = run2(machine, sender, receiver)
        assert res.stats[1].recv_wait_time == 0.0
        assert res.parallel_time == 100.0

    def test_fifo_order_same_channel(self, machine):
        def sender(info):
            yield Send(dst=1, data="first", nwords=1)
            yield Send(dst=1, data="second", nwords=1)

        def receiver(info):
            a = yield Recv(src=0)
            b = yield Recv(src=0)
            return (a, b)

        res = run2(machine, sender, receiver)
        assert res.returns[1] == ("first", "second")

    def test_tags_demultiplex(self, machine):
        def sender(info):
            yield Send(dst=1, data="t7", nwords=1, tag=7)
            yield Send(dst=1, data="t3", nwords=1, tag=3)

        def receiver(info):
            a = yield Recv(src=0, tag=3)
            b = yield Recv(src=0, tag=7)
            return (a, b)

        res = run2(machine, sender, receiver)
        assert res.returns[1] == ("t3", "t7")

    def test_send_is_nonblocking(self, machine):
        # sender finishes its own clock without waiting for the receiver
        def sender(info):
            yield Send(dst=1, data=0, nwords=1)
            return "done"

        def receiver(info):
            yield Compute(1000.0)
            yield Recv(src=0)

        res = run2(machine, sender, receiver)
        assert res.stats[0].finish_time == machine.ts + machine.tw

    def test_exchange_both_send_first(self, machine):
        # classic pairwise exchange must not deadlock (sends are buffered)
        def prog(info):
            other = 1 - info.rank
            yield Send(dst=other, data=info.rank, nwords=10)
            got = yield Recv(src=other)
            return got

        res = run2(machine, prog, prog)
        assert res.returns == [1, 0]
        # one full transfer time each, overlapped
        assert res.parallel_time == machine.ts + 10 * machine.tw

    def test_send_invalid_rank(self, machine):
        def prog(info):
            yield Send(dst=99, data=0, nwords=1)

        with pytest.raises(ProgramError):
            run_spmd(FullyConnected(2), machine, [prog, lambda i: iter(())])

    def test_words_accounting(self, machine):
        def sender(info):
            yield Send(dst=1, data=0, nwords=7)
            yield Send(dst=1, data=0, nwords=3)

        def receiver(info):
            yield Recv(src=0)
            yield Recv(src=0)

        res = run2(machine, sender, receiver)
        assert res.stats[0].messages_sent == 2
        assert res.stats[0].words_sent == 10
        assert res.total_messages == 2
        assert res.total_words == 10


class TestRouting:
    def test_hop_distance_free_under_ct_th0(self, machine):
        # cut-through with th = 0: arrival time independent of distance
        def sender(info):
            yield Send(dst=3, data=0, nwords=5)

        def receiver(info):
            yield Recv(src=0)

        def idle(info):
            return None
            yield

        topo = Hypercube(2)  # 0 -> 3 is two hops
        res = Engine(topo, machine).run([sender, idle, idle, receiver])
        assert res.parallel_time == machine.ts + 5 * machine.tw

    def test_per_hop_latency_charged(self):
        m = MachineParams(ts=10.0, tw=2.0, th=4.0)

        def sender(info):
            yield Send(dst=3, data=0, nwords=5)

        def receiver(info):
            yield Recv(src=0)

        def idle(info):
            return None
            yield

        res = Engine(Hypercube(2), m).run([sender, idle, idle, receiver])
        assert res.parallel_time == 10 + 10 + 4 * 2  # ts + tw*m + th*hops

    def test_store_and_forward_scales(self):
        m = MachineParams(ts=10.0, tw=2.0, routing="sf")

        def sender(info):
            yield Send(dst=3, data=0, nwords=5)

        def receiver(info):
            yield Recv(src=0)

        def idle(info):
            return None
            yield

        res = Engine(Hypercube(2), m).run([sender, idle, idle, receiver])
        assert res.parallel_time == 10 + 2 * 5 * 2  # ts + tw*m*hops


class TestSendAll:
    def _progs(self):
        def sender(info):
            yield SendAll(
                [Send(dst=1, data="a", nwords=10), Send(dst=2, data="b", nwords=10)]
            )

        def receiver(info):
            got = yield Recv(src=0)
            return got

        return [sender, receiver, receiver]

    def test_one_port_serializes(self, machine):
        res = Engine(FullyConnected(3), machine).run(self._progs())
        assert res.stats[0].send_time == 2 * (machine.ts + 10 * machine.tw)

    def test_all_port_overlaps(self, machine):
        res = Engine(FullyConnected(3), machine.with_(all_port=True)).run(self._progs())
        assert res.stats[0].send_time == machine.ts + 10 * machine.tw
        assert res.returns[1:] == ["a", "b"]

    def test_duplicate_destinations_rejected(self):
        with pytest.raises(ValueError):
            SendAll([Send(dst=1, data=0, nwords=1), Send(dst=1, data=0, nwords=1)])


class TestBarrier:
    def test_barrier_aligns_clocks(self, machine):
        def make(cost):
            def prog(info):
                yield Compute(cost)
                yield Barrier()
                yield Compute(1.0)

            return prog

        res = Engine(FullyConnected(3), machine).run([make(10), make(50), make(30)])
        assert res.parallel_time == 51.0
        assert res.stats[0].barrier_wait_time == 40.0
        assert res.stats[1].barrier_wait_time == 0.0

    def test_two_barriers(self, machine):
        def prog(info):
            yield Compute(float(info.rank))
            yield Barrier()
            yield Compute(float(info.rank))
            yield Barrier()

        res = run_spmd(FullyConnected(4), machine, prog)
        assert res.parallel_time == 6.0  # max(rank)=3 twice


class TestErrors:
    def test_deadlock_detected(self, machine):
        def prog(info):
            yield Recv(src=1 - info.rank)

        with pytest.raises(DeadlockError) as err:
            run2(machine, prog, prog)
        assert 0 in err.value.blocked and 1 in err.value.blocked

    def test_bad_request_rejected(self, machine):
        def prog(info):
            yield "not a request"

        with pytest.raises(ProgramError):
            run_spmd(FullyConnected(1), machine, prog)

    def test_factory_count_mismatch(self, machine):
        with pytest.raises(ValueError):
            Engine(FullyConnected(3), machine).run([lambda i: iter(())])


class TestDeterminism:
    def test_result_independent_of_rank_order(self, machine):
        # the scheduler is confluent: a program whose ranks interleave
        # heavily still produces identical clocks across runs
        def prog(info):
            other = (info.rank + 1) % info.nprocs
            prev = (info.rank - 1) % info.nprocs
            data = info.rank
            for _ in range(5):
                yield Send(dst=other, data=data, nwords=3)
                data = yield Recv(src=prev)
                yield Compute(7.0)
            return data

        r1 = run_spmd(FullyConnected(8), machine, prog)
        r2 = run_spmd(FullyConnected(8), machine, prog)
        assert r1.parallel_time == r2.parallel_time
        assert r1.returns == r2.returns
        assert [s.finish_time for s in r1.stats] == [s.finish_time for s in r2.stats]


class TestTrace:
    def test_trace_disabled_by_default(self, machine):
        def prog(info):
            yield Compute(1.0)

        res = run_spmd(FullyConnected(1), machine, prog)
        assert res.trace.events == []

    def test_trace_records_events(self, machine):
        def sender(info):
            yield Compute(5.0)
            yield Send(dst=1, data=0, nwords=2)

        def receiver(info):
            yield Recv(src=0)

        res = Engine(FullyConnected(2), machine, SimConfig(trace=True)).run([sender, receiver])
        kinds = [e.kind for e in res.trace.for_rank(0)]
        assert kinds == ["compute", "send"]
        recv_events = res.trace.by_kind("recv")
        assert len(recv_events) == 1 and recv_events[0].rank == 1

    def test_trace_cap(self, machine):
        def prog(info):
            for _ in range(10):
                yield Compute(1.0)

        config = SimConfig(trace=True, max_trace_events=4)
        res = Engine(FullyConnected(1), machine, config).run([prog])
        assert len(res.trace.events) == 4
        assert res.trace.dropped == 6


class TestMetricsOnResult:
    def test_speedup_efficiency_overhead(self, machine):
        def prog(info):
            yield Compute(25.0)

        res = run_spmd(FullyConnected(4), machine, prog)
        work = 100.0
        assert res.speedup(work) == 4.0
        assert res.efficiency(work) == 1.0
        assert res.total_overhead(work) == 0.0


class TestRankArraysSnapshot:
    def test_columns_convert_exactly_like_per_element(self):
        arr = RankArrays(5)
        arr.clock[:] = [0.0, -0.0, np.inf, 1e308, 5e-324]
        arr.compute_time[:] = [-0.0, 0.1, np.inf, -np.inf, 3.0]
        arr.send_time[:] = [np.inf, -0.0, 2.5, 1 / 3, 0.0]
        arr.recv_wait_time[:] = [1e-300, -0.0, 0.0, np.inf, 7.0]
        arr.barrier_wait_time[:] = [-0.0, -0.0, np.inf, 2.0**60, 1.0]
        big = np.iinfo(np.int64).max
        arr.messages_sent[:] = [0, big, -big - 1, 2**53 + 1, 7]
        arr.words_sent[:] = [big, 2**62 + 3, 0, -1, 2**53 + 1]

        expected = [
            RankStats(
                rank=r,
                compute_time=float(arr.compute_time[r]),
                send_time=float(arr.send_time[r]),
                recv_wait_time=float(arr.recv_wait_time[r]),
                barrier_wait_time=float(arr.barrier_wait_time[r]),
                messages_sent=int(arr.messages_sent[r]),
                words_sent=int(arr.words_sent[r]),
                finish_time=float(arr.clock[r]),
            )
            for r in range(arr.nprocs)
        ]

        def exact(stats):
            # type and bit pattern of every field (-0.0 != 0.0 here)
            return [
                tuple(
                    (type(v), v.hex() if isinstance(v, float) else v)
                    for v in vars(s).values()
                )
                for s in stats
            ]

        got = arr.snapshot()
        assert got == expected
        assert exact(got) == exact(expected)
