"""Tests for the overhead-decomposition analysis."""

import numpy as np
import pytest

from conftest import rand_pair
from repro.algorithms.berntsen import run_berntsen
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk
from repro.core.decomposition import communication_by_kind, decompose_overhead
from repro.core.machine import MachineParams
from repro.simulator.engine import SimConfig

M = MachineParams(ts=10.0, tw=2.0)


class TestIdentity:
    @pytest.mark.parametrize("runner,n,p", [
        (run_cannon, 16, 16),
        (run_cannon, 24, 16),
        (run_gk, 16, 64),
        (run_gk, 32, 8),
    ])
    def test_constituents_sum_to_overhead(self, runner, n, p):
        A, B = rand_pair(n, seed=p)
        res = runner(A, B, p, M)
        bd = decompose_overhead(res.sim, res.work)
        assert bd.accounted == pytest.approx(bd.total_overhead, rel=1e-9, abs=1e-6)

    def test_berntsen_extra_compute_is_reduction_adds(self):
        n, p = 16, 64
        A, B = rand_pair(n, seed=1)
        res = run_berntsen(A, B, p, M)
        bd = decompose_overhead(res.sim, res.work)
        assert bd.extra_compute_time > 0
        # reduce-scatter adds: < one block per processor at t_add-ish cost
        assert bd.extra_compute_time < n * n * np.log2(p)
        assert bd.accounted == pytest.approx(bd.total_overhead)

    def test_gk_extra_compute_positive(self):
        A, B = rand_pair(16, seed=2)
        res = run_gk(A, B, 64, M)
        bd = decompose_overhead(res.sim, res.work)
        assert bd.extra_compute_time > 0  # stage-3 merge adds

    def test_validation(self):
        A, B = rand_pair(8, seed=1)
        res = run_cannon(A, B, 4, M)
        with pytest.raises(ValueError):
            decompose_overhead(res.sim, -1.0)


class TestStructure:
    def test_cannon_overhead_is_mostly_communication(self):
        # even blocks, perfectly balanced: no end skew, overhead = comm
        n, p = 16, 16
        A, B = rand_pair(n, seed=3)
        res = run_cannon(A, B, p, M)
        bd = decompose_overhead(res.sim, res.work)
        assert bd.communication_fraction == pytest.approx(1.0)
        assert bd.end_skew_time == pytest.approx(0.0)
        assert bd.extra_compute_time == pytest.approx(0.0)

    def test_uneven_blocks_create_skew(self):
        # n not divisible by sqrt(p): the bigger blocks finish later
        A, B = rand_pair(18, seed=3)
        res = run_cannon(A, B, 16, M)
        bd = decompose_overhead(res.sim, res.work)
        assert bd.end_skew_time > 0

    def test_as_dict_keys(self):
        A, B = rand_pair(8, seed=1)
        res = run_cannon(A, B, 4, M)
        d = decompose_overhead(res.sim, res.work).as_dict()
        assert set(d) >= {"work", "total_overhead", "send_time", "recv_wait_time"}


class TestTraceByKind:
    def test_requires_trace(self):
        A, B = rand_pair(8, seed=1)
        res = run_cannon(A, B, 4, M)
        with pytest.raises(ValueError):
            communication_by_kind(res.sim)

    def test_kind_totals_match_stats(self):
        A, B = rand_pair(16, seed=1)
        res = run_cannon(A, B, 16, M, config=SimConfig(trace=True))
        kinds = communication_by_kind(res.sim)
        assert kinds["compute"] == pytest.approx(res.sim.total_compute_time)
        assert kinds["send"] == pytest.approx(sum(s.send_time for s in res.sim.stats))
        assert kinds["recv"] == pytest.approx(
            sum(s.recv_wait_time for s in res.sim.stats)
        )


class TestCommunicationByTag:
    def test_gk_stage_attribution(self):
        """Communication groups into the five GK stages (route/bcast x2 + reduce)."""
        from repro.core.decomposition import communication_by_tag

        A, B = rand_pair(32, seed=4)
        res = __import__("repro.algorithms.gk", fromlist=["run_gk"]).run_gk(
            A, B, 64, M, config=SimConfig(trace=True)
        )
        by_tag = communication_by_tag(res.sim)
        # tags: 10 route A, 20 bcast A, 30 route B, 40 bcast B, 50 reduce
        assert set(by_tag) == {10, 20, 30, 40, 50}
        assert all(v > 0 for v in by_tag.values())
        # broadcasts (log r tree steps) cost more than the point-to-point routes
        assert by_tag[20] > by_tag[10]
        assert by_tag[40] > by_tag[30]

    def test_cannon_roll_tags(self):
        from repro.core.decomposition import communication_by_tag

        A, B = rand_pair(16, seed=4)
        res = run_cannon(A, B, 16, M, config=SimConfig(trace=True))
        by_tag = communication_by_tag(res.sim)
        assert set(by_tag) == {3, 4}  # A rolls, B rolls (pre-aligned run)
        # the two operands move the same volume
        assert by_tag[3] == pytest.approx(by_tag[4], rel=0.25)

    def test_requires_trace(self):
        from repro.core.decomposition import communication_by_tag

        A, B = rand_pair(8, seed=1)
        res = run_cannon(A, B, 4, M)
        with pytest.raises(ValueError):
            communication_by_tag(res.sim)

    def test_tag_times_cover_all_comm(self):
        from repro.core.decomposition import communication_by_tag

        A, B = rand_pair(16, seed=4)
        res = run_cannon(A, B, 16, M, config=SimConfig(trace=True))
        by_tag = communication_by_tag(res.sim)
        total = sum(s.send_time + s.recv_wait_time for s in res.sim.stats)
        assert sum(by_tag.values()) == pytest.approx(total)
