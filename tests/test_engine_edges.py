"""Engine edge cases: self-sends, zero-word messages, generator misuse,
mixed traffic patterns, and bookkeeping corner cases."""

import pytest

from repro.core.machine import MachineParams
from repro.simulator.engine import Engine, SimConfig, run_spmd
from repro.simulator.errors import DeadlockError
from repro.simulator.request import Barrier, Compute, Recv, Send, SendAll
from repro.simulator.topology import FullyConnected, Hypercube

M = MachineParams(ts=10.0, tw=2.0)


class TestSelfSend:
    def test_self_send_delivers(self):
        def prog(info):
            yield Send(dst=info.rank, data="me", nwords=3)
            got = yield Recv(src=info.rank)
            return got

        res = run_spmd(FullyConnected(2), M, prog)
        assert res.returns == ["me", "me"]

    def test_self_send_costed_like_a_message(self):
        # the model has no special case for self-sends; a program that
        # wants them free should not issue them
        def prog(info):
            yield Send(dst=info.rank, data=0, nwords=3)
            yield Recv(src=info.rank)

        res = run_spmd(FullyConnected(1), M, prog)
        assert res.parallel_time == pytest.approx(M.ts + 3 * M.tw)


class TestZeroWordMessages:
    def test_zero_words_costs_startup_only(self):
        def sender(info):
            yield Send(dst=1, data="hdr", nwords=0)

        def receiver(info):
            got = yield Recv(src=0)
            return got

        res = Engine(FullyConnected(2), M).run([sender, receiver])
        assert res.returns[1] == "hdr"
        assert res.parallel_time == pytest.approx(M.ts)

    def test_zero_cost_compute(self):
        def prog(info):
            yield Compute(0.0)
            return "done"

        res = run_spmd(FullyConnected(1), M, prog)
        assert res.parallel_time == 0.0


class TestMixedPatterns:
    def test_many_to_one_funnel(self):
        def prog(info):
            if info.rank == 0:
                got = []
                for src in range(1, info.nprocs):
                    got.append((yield Recv(src=src)))
                return sorted(got)
            yield Send(dst=0, data=info.rank, nwords=4)

        res = run_spmd(FullyConnected(6), M, prog)
        assert res.returns[0] == [1, 2, 3, 4, 5]
        # receiver waits for the last arrival; senders overlap
        assert res.parallel_time == pytest.approx(M.ts + 4 * M.tw)

    def test_one_to_many_fanout_serializes_on_sender(self):
        def prog(info):
            if info.rank == 0:
                for dst in range(1, info.nprocs):
                    yield Send(dst=dst, data=dst, nwords=4)
            else:
                got = yield Recv(src=0)
                return got

        res = run_spmd(FullyConnected(5), M, prog)
        assert res.stats[0].finish_time == pytest.approx(4 * (M.ts + 4 * M.tw))

    def test_barrier_then_exchange(self):
        def prog(info):
            yield Compute(float(info.rank * 10))
            yield Barrier()
            other = info.nprocs - 1 - info.rank
            if other != info.rank:
                yield Send(dst=other, data=info.rank, nwords=1)
                got = yield Recv(src=other)
                return got
            return info.rank

        res = run_spmd(FullyConnected(4), M, prog)
        assert res.returns == [3, 2, 1, 0]

    def test_sendall_empty_is_noop(self):
        def prog(info):
            yield SendAll([])
            return "ok"

        res = run_spmd(FullyConnected(1), M, prog)
        assert res.returns == ["ok"] and res.parallel_time == 0.0


class TestDeadlockShapes:
    def test_three_cycle_deadlock(self):
        def prog(info):
            got = yield Recv(src=(info.rank + 1) % 3)
            yield Send(dst=(info.rank - 1) % 3, data=got, nwords=1)

        with pytest.raises(DeadlockError) as err:
            run_spmd(FullyConnected(3), M, prog)
        assert set(err.value.blocked) == {0, 1, 2}

    def test_wrong_tag_deadlocks(self):
        def sender(info):
            yield Send(dst=1, data=0, nwords=1, tag=7)

        def receiver(info):
            yield Recv(src=0, tag=8)

        with pytest.raises(DeadlockError):
            Engine(FullyConnected(2), M).run([sender, receiver])

    def test_partial_progress_before_deadlock(self):
        # rank 1 finishes fine; rank 0 then deadlocks on a phantom message
        def p0(info):
            yield Recv(src=1, tag=99)

        def p1(info):
            yield Compute(5.0)
            return "done"

        with pytest.raises(DeadlockError) as err:
            Engine(FullyConnected(2), M).run([p0, p1])
        assert list(err.value.blocked) == [0]


class TestReturnsAndStats:
    def test_immediate_return(self):
        def prog(info):
            return info.rank * 2
            yield  # pragma: no cover - makes this a generator

        res = run_spmd(FullyConnected(3), M, prog)
        assert res.returns == [0, 2, 4]
        assert res.parallel_time == 0.0

    def test_comm_time_property(self):
        def sender(info):
            yield Send(dst=1, data=0, nwords=5)

        def receiver(info):
            yield Recv(src=0)

        res = Engine(FullyConnected(2), M).run([sender, receiver])
        assert res.stats[0].comm_time == res.stats[0].send_time
        assert res.stats[1].comm_time == res.stats[1].recv_wait_time
        assert res.total_comm_time == pytest.approx(2 * (M.ts + 5 * M.tw))

    def test_hypercube_mismatched_program_count(self):
        with pytest.raises(ValueError):
            Engine(Hypercube(2), M).run([lambda i: iter(())] * 3)


class TestSchedulerSelection:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            Engine(FullyConnected(2), M, SimConfig(scheduler="optimistic"))

    def test_run_spmd_scheduler_passthrough(self):
        def prog(info):
            if info.rank == 0:
                yield Send(dst=1, data="x", nwords=3)
            else:
                got = yield Recv(src=0)
                assert got == "x"
            yield Barrier()

        r1 = run_spmd(FullyConnected(2), M, prog, SimConfig(scheduler="ready"))
        r2 = run_spmd(FullyConnected(2), M, prog, SimConfig(scheduler="rescan"))
        assert r1.parallel_time == r2.parallel_time
        assert r1.stats == r2.stats

    def test_link_contention_uses_rescan(self):
        # reservation order is part of the contention contract; the
        # engine must fall back to the reference scheduler silently
        def prog(info):
            if info.rank == 0:
                yield Send(dst=1, data=None, nwords=4)
            else:
                yield Recv(src=0)

        eng = Engine(FullyConnected(2), M, SimConfig(scheduler="ready", link_contention=True))
        res = eng.run([prog, prog])
        assert res.total_messages == 1
